"""Spans around the package's public functions, and the per-layer metrics
computed from them.

Nothing is traced inside the program: each function is replaced, for the
life of one worker process, by a wrapper in the module attribute its callers
look it up through (`training.backward` rather than `numerics.backward`,
because `training` imports it by name). Spans (name, start, end, parent,
note) stay in memory and are written out when the round ends.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

# (module, attribute, span name). A name is the layer the function belongs
# to; one name may cover the same function seen from two callers.
WRAPPED = (
    ("cli", "cmd_gen_data", "cli.gen_data"),
    ("cli", "cmd_pretrain", "cli.pretrain"),
    ("cli", "cmd_finetune", "cli.finetune"),
    ("cli", "load_config", "cli.load_config"),
    ("videodata", "generate_dataset", "videodata.generate_dataset"),
    ("videodata", "load_raw_clip", "videodata.load_raw_clip"),
    ("videodata", "random_resized_crop", "videodata.augment"),
    ("videodata", "hflip", "videodata.augment"),
    ("training", "pretrain_step", "training.pretrain_step"),
    ("training", "sample_mask", "tokenizer.sample_mask"),
    ("training", "make_targets", "targets.make_targets"),
    ("training", "backward", "numerics.backward"),
    ("training", "adamw_step", "numerics.adamw_step"),
    ("training", "save_checkpoint", "training.save_checkpoint"),
    ("training", "load_checkpoint", "training.load_checkpoint"),
    ("training", "run_finetune", "training.run_finetune"),
    ("training", "evaluate_top1", "training.evaluate_top1"),
    ("training", "classify", "model.classify"),
    ("model", "classify", "model.classify"),
    ("model", "encode", "model.encode"),
    ("model", "decode", "model.decode"),
    ("model", "patchify", "tokenizer.patchify"),
    ("model", "sincos_posenc", "tokenizer.sincos_posenc"),
    ("targets", "patchify", "tokenizer.patchify"),
    ("numerics", "matmul", "numerics.matmul"),
    ("numerics", "gelu", "numerics.gelu"),
    ("numerics", "softmax", "numerics.softmax"),
    ("numerics", "layer_norm", "numerics.layer_norm"),
    ("evalviz", "metrics_report", "evalviz.metrics_report"),
)


def _matmul_flops(a, b, *_):
    return 2 * a.size * b.shape[-1]


def _tape_ops(loss, tape, *_):
    return len(tape)


# span name -> note taken from the call's arguments
NOTES = {
    "numerics.matmul": _matmul_flops,
    "numerics.backward": _tape_ops,
    "training.evaluate_top1": lambda clips, *_: len(clips),
}


class Tracer:
    """Records one span per wrapped call in flat columns: span i is
    (names[i], starts[i], ends[i], parents[i] or -1, notes[i]). Columns of
    numbers hold no objects for the garbage collector to walk."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.notes = array("d")
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        names, starts, ends, parents, notes = (self.names, self.starts, self.ends,
                                               self.parents, self.notes)
        stack, clock = self._open, time.perf_counter
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            notes.append(note(*args) if note else 0.0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED for the rest of the process."""
        for module, attr, name in WRAPPED:
            mod = importlib.import_module(f"motionmae.{module}")
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))

    def spans(self) -> list[tuple]:
        """(name, start, end, parent, note) per span, in call order."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.notes))


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    `*_per_step` divides by the pretraining steps and only counts spans
    under `training.pretrain_step` (augmentation, which runs before each
    step, excepted). The numerics forward times and the step's own time are
    self times, a span's duration minus the durations of its child spans;
    the other times are whole durations.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    self_t = dur[:]
    step_of = [-1] * n   # enclosing pretrain step
    command = [""] * n   # enclosing cli command
    in_finetune_loop = [False] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            self_t[parent] -= dur[i]
            step_of[i] = step_of[parent]
            command[i] = command[parent]
            in_finetune_loop[i] = in_finetune_loop[parent]
        if name == "training.pretrain_step":
            step_of[i] = i
        elif name.startswith("cli.") and name != "cli.load_config":
            command[i] = name
        elif name == "training.run_finetune":
            in_finetune_loop[i] = True

    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def pick(name, where=lambda i: True):
        return [i for i in by_name[name] if where(i)]

    def in_step(name):
        return pick(name, lambda i: step_of[i] >= 0)

    def total(ids, of=dur):
        return sum(of[i] for i in ids)

    steps = pick("training.pretrain_step")
    per_step = 1.0 / max(len(steps), 1)
    ms = 1e3
    finetune = pick("training.run_finetune")
    ft_loads = [i for i in pick("training.load_checkpoint") if in_finetune_loop[i]]
    ft_evals = [i for i in pick("training.evaluate_top1") if in_finetune_loop[i]]
    ft_steps = [i for i in pick("numerics.backward") if in_finetune_loop[i]]
    evals = pick("training.evaluate_top1")
    classify = pick("model.classify", lambda i: command[i] == "cli.finetune")
    report_pass = [i for i in classify if not in_finetune_loop[i]]
    saves = pick("training.save_checkpoint")
    loads = pick("training.load_checkpoint")

    def mean_ms(ids, of=dur):
        return total(ids, of) * ms / max(len(ids), 1)

    return {
        "numerics.tape_ops_per_step":
            sum(spans[i][4] for i in in_step("numerics.backward")) * per_step,
        "numerics.matmul_calls_per_step": len(in_step("numerics.matmul")) * per_step,
        "numerics.matmul_gflop_per_step":
            sum(spans[i][4] for i in in_step("numerics.matmul")) * per_step / 1e9,
        "numerics.matmul_ms_per_step": total(in_step("numerics.matmul"), self_t) * ms * per_step,
        "numerics.gelu_ms_per_step": total(in_step("numerics.gelu"), self_t) * ms * per_step,
        "numerics.softmax_ms_per_step": total(in_step("numerics.softmax"), self_t) * ms * per_step,
        "numerics.layer_norm_ms_per_step":
            total(in_step("numerics.layer_norm"), self_t) * ms * per_step,
        "numerics.backward_ms_per_step": total(in_step("numerics.backward")) * ms * per_step,
        "numerics.adamw_ms_per_step": total(in_step("numerics.adamw_step")) * ms * per_step,
        "tokenizer.posenc_calls_per_step": len(in_step("tokenizer.sincos_posenc")) * per_step,
        "tokenizer.posenc_ms_per_step": total(in_step("tokenizer.sincos_posenc")) * ms * per_step,
        "tokenizer.patchify_calls_per_step": len(in_step("tokenizer.patchify")) * per_step,
        "tokenizer.sample_mask_ms_per_step":
            total(in_step("tokenizer.sample_mask")) * ms * per_step,
        "targets.make_targets_ms_per_step":
            total(in_step("targets.make_targets")) * ms * per_step,
        "model.encode_ms_per_step": total(in_step("model.encode")) * ms * per_step,
        "model.decode_ms_per_step": total(in_step("model.decode")) * ms * per_step,
        "model.classify_ms_per_clip": mean_ms(classify),
        "training.pretrain_step_ms": mean_ms(steps),
        "training.pretrain_step_self_ms": mean_ms(steps, self_t),
        "training.finetune_step_ms":
            (total(finetune) - total(ft_loads) - total(ft_evals)) * ms
            / max(len(ft_steps), 1),
        "training.save_checkpoint_ms": mean_ms(saves),
        "training.load_checkpoint_ms": mean_ms(loads),
        "training.evaluate_top1_ms_per_clip":
            total(evals) * ms / max(sum(spans[i][4] for i in evals), 1),
        "videodata.generate_dataset_ms": total(pick("videodata.generate_dataset")) * ms,
        "videodata.load_raw_clip_ms": total(pick("videodata.load_raw_clip")) * ms,
        "videodata.augment_ms_per_step":
            total(pick("videodata.augment", lambda i: command[i] == "cli.pretrain"))
            * ms * per_step,
        "evalviz.metrics_report_ms": total(pick("evalviz.metrics_report")) * ms,
        "cli.load_config_ms": total(pick("cli.load_config")) * ms,
        "cli.finetune_report_pass_ms": total(report_pass) * ms,
    }
