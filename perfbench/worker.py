"""One benchmark round in a fresh process.

Runs the commands a user runs, in order, through the package's CLI entry
point: `gen-data` for the training and validation sets, `pretrain`, then
`finetune --init <final checkpoint>`. Writes `result.json` (timings, exit
codes, output-check problems) and, when traced, `trace.json` into the
working directory, which holds the round's configs.

    python3 perfbench/worker.py <src dir> <trace 0|1> <check targets 0|1>
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
from tracing import Tracer

COMMANDS = (
    ["gen-data", "--config", "run.json"],
    ["gen-data", "--config", "val.json"],
    ["pretrain", "--config", "run.json"],
    ["finetune", "--config", "run.json", "--init", "run/checkpoint_final.mmck"],
)


def _run(cli, argv) -> int:
    try:
        return cli.main(argv)
    except Exception:  # the round goes on so that every run attempts all commands
        traceback.print_exc()
        return 1


def check_targets(cfg: dict, tokenizer, targets) -> list[str]:
    """Motion targets and hidden-token counts for every mask the run drew."""
    clips = checks.read_dataset(cfg["data"]["dir"])
    data, model, mask, tgt, train = (cfg["data"], cfg["model"], cfg["mask"],
                                     cfg["targets"], cfg["train"])
    ct, cp = model["cube_t"], model["cube_p"]
    dims = (data["T"] // ct, data["H"] // cp, data["W"] // cp)
    grid = tokenizer.TokenGrid(*dims, ct, cp, data["channels"])
    tcfg = targets.TargetConfig(tgt["kind"], tgt["gap"], tgt["normalize"])
    batch = train["batch_size"]
    problems = []
    for step in range(train["total_steps"]):
        for i in range(batch):
            clip = clips[(step * batch + i) % len(clips)]
            m = tokenizer.sample_mask(grid, mask["ratio"], mask["strategy"],
                                      seed=checks.mask_seed(cfg["seed"], step, i))
            hidden = [k for k, bit in enumerate(m.bits) if bit]
            problems += checks.check_hidden_count(len(hidden), mask["strategy"],
                                                  mask["ratio"], *dims)
            bundle = targets.make_targets(clip, m, grid, tcfg)
            problems += checks.check_motion_target(bundle.time, clip, hidden, ct,
                                                   cp, tgt["gap"])
            if problems:
                return [f"step {step}, sample {i}: {p}" for p in problems]
    return []


def main(src: str, trace: bool, check: bool) -> int:
    sys.path.insert(0, src)
    from motionmae import cli, targets, tokenizer, training

    if trace:
        tracer = Tracer()
        tracer.install()

    # The end-to-end probes: when the first pretraining step begins, each
    # step's duration and clip count; each finetuning step's duration, from
    # one optimizer update to the next; and the time per clip classified in
    # evaluate_top1: from one classify call to the next, or to the return,
    # or the call's time shared evenly if classify does not run once a clip.
    first_step: list[float] = []
    step_s: list[float] = []
    clips = [0]
    updates: list[float] = []
    eval_clip_s: list[float] = []
    marks: list[float] = []
    step_fn, update_fn, eval_fn, classify_fn = (
        training.pretrain_step, training.adamw_step, training.evaluate_top1,
        training.classify)

    def pretrain_step(batch, *args, **kwargs):
        if not first_step:
            first_step[:] = [time.time(), time.perf_counter()]
        clips[0] += len(batch)
        t0 = time.perf_counter()
        try:
            return step_fn(batch, *args, **kwargs)
        finally:
            step_s.append(time.perf_counter() - t0)

    def adamw_step(*args, **kwargs):
        try:
            return update_fn(*args, **kwargs)
        finally:
            updates.append(time.perf_counter())

    def evaluate_top1(eval_clips, *args, **kwargs):
        marks[:] = [time.perf_counter()]
        try:
            return eval_fn(eval_clips, *args, **kwargs)
        finally:
            marks.append(time.perf_counter())
            n = len(eval_clips)
            if len(marks) == n + 2:
                eval_clip_s.extend(b - a for a, b in zip(marks[1:], marks[2:]))
            else:
                eval_clip_s.extend([(marks[-1] - marks[0]) / n] * n)
            marks.clear()

    def classify(*args, **kwargs):
        if marks:
            marks.append(time.perf_counter())
        return classify_fn(*args, **kwargs)

    training.pretrain_step, training.evaluate_top1, training.classify = (
        pretrain_step, evaluate_top1, classify)

    codes = [_run(cli, argv) for argv in COMMANDS[:3]]
    pretrain_end = time.perf_counter()
    training.adamw_step = adamw_step
    codes.append(_run(cli, COMMANDS[3]))
    finetune_s = time.perf_counter() - pretrain_end
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        Path("trace.json").write_text(json.dumps(tracer.spans()))

    problems = []
    if check and not any(codes):
        problems = check_targets(json.loads(Path("run.json").read_text()),
                                 tokenizer, targets)
    result = {
        "codes": codes,
        "first_step_wall": first_step[0] if first_step else None,
        "pretrain_s": pretrain_end - first_step[1] if first_step else None,
        "pretrain_clips": clips[0],
        "step_s": step_s,
        "finetune_s": finetune_s,
        "finetune_step_s": [b - a for a, b in zip(updates, updates[1:])],
        "eval_clip_s": eval_clip_s,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
    }
    Path("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2] == "1", sys.argv[3] == "1"))
