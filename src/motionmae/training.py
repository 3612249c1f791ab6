"""Masked reconstruction objective, training loops, and checkpointing.

Losses average over masked elements only. Pretraining optimizes
L_space + lambda * L_time with AdamW under a warmup+cosine schedule;
finetuning swaps the decoder for a mean-pool classifier trained with
cross-entropy. A checkpoint holds the flat parameter arena and its AdamW
moments behind a table of names and shapes, between a config digest and a
trailing content digest, and training is bit-deterministic given
(seed, config, dataset), which makes mid-run resume reproduce the original
trajectory exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from .evalviz import topk_accuracy
from .model import (
    DecoderConfig,
    EncoderConfig,
    classify,
    forward_pretrain,
    init_params,
)
from .numerics import (LOSS_KINDS, NonFiniteError, OptimState, Tape, Tensor,
                       adamw_step, backward, cross_entropy)
from .targets import TargetConfig, make_targets
from .tokenizer import Mask, TokenGrid, sample_mask
from .videodata import write_atomic

# offsets of the run seed's fan-out to the data, the masks and parameter init
SEED_DATA, SEED_MASKS, SEED_INIT = 1, 2, 3

CHECKPOINT_MAGIC = b"MMCK"
CHECKPOINT_VERSION = 2


class CheckpointError(Exception):
    """Base class for checkpoint file problems."""


class CheckpointFormatError(CheckpointError):
    """Missing magic bytes, a malformed table, or payloads longer than the
    table says."""


class CheckpointVersionError(CheckpointError):
    """Unsupported checkpoint version."""


class CheckpointDigestError(CheckpointError):
    """Content or config digest does not match."""


class CheckpointTruncatedError(CheckpointError):
    """File ends before its table or payloads do."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1.5e-4
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.05
    warmup_steps: int = 0
    total_steps: int = 100
    batch_size: int = 8
    target_kind: str = "both"
    lam: float = 1.0
    loss_kind: str = "mse"
    mask_ratio: float = 0.75
    mask_strategy: str = "random"
    gap: int = 1
    normalize_space: bool = False
    seed: int = 0
    log_interval: int = 10
    checkpoint_interval: int = 0  # 0 = only at the end

    def __post_init__(self):
        # each message starts with the field it rejects; `not` also rejects NaN
        for name in ("lr", "weight_decay"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        # decoupled decay scales every parameter by 1 - lr * weight_decay a step
        if self.lr * self.weight_decay >= 1.0:
            raise ValueError(f"lr {self.lr} times weight_decay {self.weight_decay} "
                             f"must be < 1")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not 0.0 < self.eps < math.inf:
            raise ValueError("eps must be finite and > 0")
        if self.total_steps < 0:
            raise ValueError("total_steps must be >= 0")
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ValueError("warmup_steps must lie in [0, total_steps]")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("lam (the time-loss weight) must be finite and >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind {self.loss_kind!r} is not one of {LOSS_KINDS}")
        if self.log_interval < 1:
            raise ValueError("log_interval must be >= 1")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0 (0 = only at the end)")

    def target_config(self) -> TargetConfig:
        return TargetConfig(kind=self.target_kind, gap=self.gap,
                            normalize_space=self.normalize_space)


def config_digest(cfg) -> bytes:
    """Stable 32-byte digest of a config dataclass (for checkpoint pairing)."""
    blob = json.dumps(asdict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).digest()


def derive_seed(*parts: int) -> int:
    """Deterministic child seed from a tuple of integers."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def masked_loss(pred: Tensor, target: np.ndarray, mask: Mask, kind: str) -> Tensor:
    """Mean reconstruction penalty over the masked elements only.

    Takes (N, K) predictions with a Mask of (N,) bits and (M, K) targets, or
    a batch of (B, N, K) predictions with a Mask of (B, N) bits and
    (B, M, K) targets. Every sample hides M tokens, so the batch mean is the
    mean of the per-sample losses.
    """
    return nm.masked_penalty(pred, target, mask.bits, kind)


def total_loss(space_loss: Tensor | None, time_loss: Tensor | None, lam: float) -> Tensor:
    """Combined objective L_space + lam * L_time, dropping absent heads."""
    if space_loss is None and time_loss is None:
        raise ValueError("at least one loss component must be present")
    if time_loss is not None:
        time_loss = nm.scale(time_loss, lam)
    if space_loss is None:
        return time_loss
    if time_loss is None:
        return space_loss
    return nm.add(space_loss, time_loss)


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to cfg.lr, then cosine decay to zero at total_steps."""
    if not 0 <= step <= cfg.total_steps:
        raise ValueError(f"step {step} outside [0, {cfg.total_steps}]")
    if step < cfg.warmup_steps:
        return cfg.lr * step / cfg.warmup_steps
    span = max(cfg.total_steps - cfg.warmup_steps, 1)
    progress = (step - cfg.warmup_steps) / span
    return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * progress))


# ---------------------------------------------------------------------------
# Pretraining
# ---------------------------------------------------------------------------


def pretrain_loss(
    clips: list[np.ndarray],
    masks: list[Mask],
    params: dict[str, Tensor],
    grid: TokenGrid,
    enc_cfg: EncoderConfig,
    dec_cfg: DecoderConfig,
    cfg: TrainConfig,
) -> tuple[Tensor, Tensor | None, Tensor | None]:
    """The batch objective as one graph: (L_space + lam * L_time, L_space,
    L_time), each the mean over the clips, with absent heads as None. The
    clips and their masks are stacked once, into (B, T, H, W, C) and one
    Mask of (B, N) bits."""
    clips, mask = np.stack(clips), Mask(np.stack([m.bits for m in masks]))
    target = make_targets(clips, mask, grid, cfg.target_config())
    pred_space, pred_time = forward_pretrain(clips, mask, grid, enc_cfg, dec_cfg, params)
    ls = lt = None
    if pred_space is not None:
        ls = masked_loss(pred_space, target.space, mask, cfg.loss_kind)
    if pred_time is not None:
        lt = masked_loss(pred_time, target.time, mask, cfg.loss_kind)
    return total_loss(ls, lt, cfg.lam), ls, lt


def pretrain_step(
    batch: list[np.ndarray],
    params: dict[str, Tensor],
    opt: OptimState,
    grid: TokenGrid,
    enc_cfg: EncoderConfig,
    dec_cfg: DecoderConfig,
    cfg: TrainConfig,
    step: int,
) -> tuple[float, float | None, float | None]:
    """One optimizer update on a batch; returns (loss, space part, time part).

    Masks are drawn per sample from (seed + SEED_MASKS, step,
    position-in-batch), the mask branch of the run-seed fan-out, so a given
    step always sees the same masks regardless of history.
    """
    masks = [sample_mask(grid, cfg.mask_ratio, cfg.mask_strategy,
                         seed=derive_seed(cfg.seed + SEED_MASKS, step, i))
             for i in range(len(batch))]
    loss, ls, lt = _update(params, opt, cfg, step, lambda: pretrain_loss(
        batch, masks, params, grid, enc_cfg, dec_cfg, cfg))
    value = lambda part: None if part is None else float(part.data)
    return float(loss.data), value(ls), value(lt)


def _update(params: dict[str, Tensor], opt: OptimState, cfg: TrainConfig,
            step: int, objective) -> tuple:
    """One optimizer update of either phase: record `objective()`, a tuple
    whose first item is the loss, on a fresh tape, backpropagate it, apply
    AdamW at the step's learning rate, and return the tuple. The gradients
    land in `opt`'s arena, where AdamW reads them."""
    tape = Tape()
    for name, p in params.items():
        tape.watch(p, into=opt.grad[name])
    try:
        parts = objective()
        backward(parts[0], tape)
    except NonFiniteError as e:
        raise NonFiniteError(f"non-finite value during step {step}: {e}") from e
    adamw_step(params, opt, lr=lr_at(step, cfg), beta1=cfg.beta1, beta2=cfg.beta2,
               eps=cfg.eps, weight_decay=cfg.weight_decay)
    return parts


def _batch_at(items: list, step: int, batch_size: int) -> list:
    n = len(items)
    return [items[(step * batch_size + j) % n] for j in range(batch_size)]


def run_pretrain(
    clips: list[np.ndarray],
    grid: TokenGrid,
    enc_cfg: EncoderConfig,
    dec_cfg: DecoderConfig,
    cfg: TrainConfig,
    out_dir,
    resume_from=None,
    augment=None,
) -> tuple[dict[str, Tensor], OptimState, Path]:
    """Full pretraining loop; writes loss.csv and checkpoint files.

    Batches cycle through the clip list in index order. `augment`, when given,
    is called as augment(clip, step, index) and must be deterministic.
    Resuming from a step-s checkpoint replays steps s+1..total identically to
    an uninterrupted run.
    """
    digest = config_digest(cfg)
    params = init_params(enc_cfg, dec_cfg, seed=cfg.seed + SEED_INIT,
                         target_kind=cfg.target_kind)
    opt = OptimState.for_params(params)
    start_step = 0
    if resume_from is not None:
        start_step = load_params(resume_from, params, expect_digest=digest, opt=opt)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "loss.csv"
    rows = ["step,loss,loss_space,loss_time\n"]
    if resume_from is not None and csv_path.exists():
        # keep the whole rows the checkpoint had logged; the steps after it run again
        logged = csv_path.read_text().splitlines(keepends=True)[1:]
        rows += [row for row in logged
                 if row.endswith("\n") and int(row.split(",", 1)[0]) <= start_step]
    fmt = lambda v: "" if v is None else f"{v:.8e}"
    # a rewrite that fails leaves the old log; the new rows stream after it
    write_atomic(csv_path, ("".join(rows).encode(),))
    with open(csv_path, "a") as fh:
        for step in range(start_step, cfg.total_steps):
            batch = _batch_at(clips, step, cfg.batch_size)
            if augment is not None:
                batch = [augment(c, step, j) for j, c in enumerate(batch)]
            loss, ls, lt = pretrain_step(batch, params, opt, grid, enc_cfg,
                                         dec_cfg, cfg, step)
            done = step + 1
            if done % cfg.log_interval == 0 or done == cfg.total_steps:
                fh.write(f"{done},{fmt(loss)},{fmt(ls)},{fmt(lt)}\n")
            if cfg.checkpoint_interval and done % cfg.checkpoint_interval == 0 \
                    and done < cfg.total_steps:
                fh.flush()  # the log holds every step the checkpoint does
                save_checkpoint(params, opt, done, digest,
                                out_dir / f"checkpoint_{done:06d}.mmck")
    final = out_dir / "checkpoint_final.mmck"
    save_checkpoint(params, opt, cfg.total_steps, digest, final)
    return params, opt, final


# ---------------------------------------------------------------------------
# Finetuning
# ---------------------------------------------------------------------------


def eval_chunk_clips(grid: TokenGrid, enc_cfg: EncoderConfig) -> int:
    """Clips per `classify` call in evaluation: as many as keep one block's
    (chunk, heads, N, N) attention scores within `numerics.SCORE_BUDGET`,
    and at least one. It depends on the grid and the config alone, so runs
    stay deterministic."""
    return max(1, nm.SCORE_BUDGET // (enc_cfg.heads * grid.num_tokens ** 2))


def evaluate_top1(
    clips: list[np.ndarray],
    labels: list[int],
    grid: TokenGrid,
    enc_cfg: EncoderConfig,
    params: dict[str, Tensor],
) -> tuple[float, list[np.ndarray]]:
    """Top-1 accuracy over the clips, and the logit row of each clip. The
    clips are classified in order, `eval_chunk_clips` at a time."""
    size = eval_chunk_clips(grid, enc_cfg)
    logits = [row for i in range(0, len(clips), size)
              for row in classify(clips[i : i + size], grid, enc_cfg, params).data]
    return topk_accuracy(logits, labels, 1), logits


def run_finetune(
    train_clips: list[np.ndarray],
    train_labels: list[int],
    val_clips: list[np.ndarray],
    val_labels: list[int],
    grid: TokenGrid,
    enc_cfg: EncoderConfig,
    cfg: TrainConfig,
    num_classes: int,
    init_from=None,
) -> tuple[dict, dict[str, Tensor]]:
    """Train encoder + classifier with cross-entropy; returns (report, params).

    The report holds the train and val top-1 and the val logit rows
    (`val_logits`). init_from may be a checkpoint path: its encoder weights
    (patch projection included) replace every encoder parameter, the
    decoder's are discarded, and the classifier head starts fresh.
    """
    if num_classes < 2:
        raise ValueError("need at least two classes")
    params = init_params(enc_cfg, None, seed=cfg.seed + SEED_INIT,
                         num_classes=num_classes)
    opt = OptimState.for_params(params)
    if init_from is not None:
        load_params(init_from, params, prefixes=("enc.", "patch_proj."))

    for step in range(cfg.total_steps):
        clips = _batch_at(train_clips, step, cfg.batch_size)
        labels = _batch_at(train_labels, step, cfg.batch_size)
        _update(params, opt, cfg, step, lambda: (cross_entropy(
            classify(clips, grid, enc_cfg, params), labels),))

    train_top1, _ = evaluate_top1(train_clips, train_labels, grid, enc_cfg, params)
    val_top1, val_logits = evaluate_top1(val_clips, val_labels, grid, enc_cfg, params)
    report = {
        "train_top1": train_top1,
        "val_top1": val_top1,
        "n_train": len(train_clips),
        "n_val": len(val_clips),
        "val_logits": val_logits,
    }
    return report, params


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(
    params: dict[str, Tensor],
    opt: OptimState,
    step: int,
    config_digest_bytes: bytes,
    path,
) -> None:
    """Serialize the parameter arena and its AdamW moments: a table of the
    parameters' names and shapes in arena order, then `opt.flat_param`,
    `opt.flat_m` and `opt.flat_v` as three float32 payloads.

    `params` must be the tensors `opt` was built for, still on their arena
    views. The payloads are written straight from the arena through one
    running digest, so the file's content is never joined in memory.
    Single-precision state only: the format stores float32 payloads, and a
    silent down-cast would break bit-exact resume.
    """
    if len(config_digest_bytes) != 32:
        raise ValueError("config digest must be 32 bytes")
    opt.check_params(params)
    if opt.flat_param.dtype != np.float32:
        raise ValueError(f"checkpoint stores float32 only; the parameters are "
                         f"{opt.flat_param.dtype}")
    chunks = [CHECKPOINT_MAGIC, struct.pack("<B", CHECKPOINT_VERSION),
              config_digest_bytes, struct.pack("<QI", step, len(opt.param))]
    for name, view in opt.param.items():
        nb = name.encode()
        chunks.append(struct.pack(f"<H{len(nb)}sB{view.ndim}I", len(nb), nb,
                                  view.ndim, *view.shape))
    chunks += [np.asarray(a, "<f4") for a in (opt.flat_param, opt.flat_m, opt.flat_v)]
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    chunks.append(digest.digest())
    write_atomic(path, chunks)


def load_checkpoint(path, expect_digest: bytes | None = None):
    """Read a checkpoint; returns (param arrays by name, (first moments,
    second moments) by name, step). The arrays are read-only views of the
    file's bytes, which are held once."""
    blob = Path(path).read_bytes()
    if len(blob) < 4 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: missing {CHECKPOINT_MAGIC!r} magic")
    if len(blob) < 81:  # magic, version, digest, step, table size, trailing digest
        raise CheckpointTruncatedError(f"{path}: only {len(blob)} bytes")
    version = blob[4]
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"{path}: version {version}, expected "
                                     f"{CHECKPOINT_VERSION}")
    end = len(blob) - 32
    if hashlib.sha256(memoryview(blob)[:end]).digest() != blob[end:]:
        raise CheckpointDigestError(f"{path}: content digest mismatch")
    stored_digest = blob[5:37]
    if expect_digest is not None and stored_digest != expect_digest:
        raise CheckpointDigestError(f"{path}: config digest mismatch (checkpoint "
                                    "was written under a different configuration)")
    step, count = struct.unpack("<QI", blob[37:49])
    off = 49  # the table's first entry

    def take(n: int, what: str) -> bytes:  # the next n bytes of the table
        nonlocal off
        if off + n > end:
            raise CheckpointTruncatedError(f"{path}: table {what} cut short")
        off += n
        return blob[off - n : off]

    shapes: dict[str, tuple[int, ...]] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "entry"))
        try:
            name = take(name_len, "name").decode()
        except UnicodeDecodeError as e:
            raise CheckpointFormatError(f"{path}: table name is not UTF-8") from e
        if name in shapes:
            raise CheckpointFormatError(f"{path}: duplicate name {name!r}")
        rank = take(1, "rank")[0]
        shapes[name] = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
    sizes = [math.prod(dims) for dims in shapes.values()]  # Python ints: no wrap
    nbytes = 12 * sum(sizes)  # three float32 payloads
    if end - off != nbytes:
        error = CheckpointTruncatedError if end - off < nbytes else CheckpointFormatError
        raise error(f"{path}: {end - off} payload bytes, the table needs {nbytes}")

    flat = np.frombuffer(blob, "<f4", count=nbytes // 4, offset=off).reshape(3, -1)
    params, m, v = arrays = ({}, {}, {})
    start = 0
    for (name, dims), size in zip(shapes.items(), sizes):
        for payload, named in zip(flat, arrays):
            try:  # numpy caps the rank, and the size even when a dim is 0
                named[name] = payload[start : start + size].reshape(dims)
            except ValueError as e:
                raise CheckpointFormatError(f"{path}: {name!r} has dims numpy "
                                            f"cannot shape") from e
        start += size
    return params, (m, v), step


def load_params(path, params: dict[str, Tensor], prefixes=("",),
                expect_digest: bytes | None = None,
                opt: OptimState | None = None) -> int:
    """Copy a checkpoint's arrays into the `params` named under `prefixes`
    and return its step; with `opt`, also copy their moments into `opt` and
    set its update count to the step.

    Values go into the tensors' own arrays, so tensors homed in an arena
    stay there and keep training. The checkpoint must hold exactly those
    names, each in the model's shape and finite (with `opt`, its moments
    too, and the second >= 0); otherwise an error names the first misfits or
    the tensor, and nothing is written."""
    arrays, (m, v), step = load_checkpoint(path, expect_digest=expect_digest)
    want = {k: p.shape for k, p in params.items() if k.startswith(prefixes)}
    have = {k: a.shape for k, a in arrays.items() if k.startswith(prefixes)}
    misfits = [f"{k}: checkpoint {have.get(k, 'absent')}, model {want.get(k, 'absent')}"
               for k in {**want, **have} if have.get(k) != want.get(k)]
    if misfits:
        raise ValueError(f"checkpoint {path} does not fit the model ({len(misfits)} "
                         f"misfit(s)): {'; '.join(misfits[:3])}")
    for k in want:
        if not np.isfinite(arrays[k]).all():
            raise NonFiniteError(f"checkpoint {path}: {k} holds non-finite values")
        if opt is not None and not (np.isfinite(m[k]).all() and np.isfinite(v[k]).all()):
            raise NonFiniteError(f"checkpoint {path}: {k}'s moments hold non-finite values")
        if opt is not None and (v[k] < 0).any():
            raise ValueError(f"checkpoint {path}: {k}'s second moment is negative")
    for k in want:
        params[k].data[...] = arrays[k]
        if opt is not None:
            opt.m[k][...] = m[k]
            opt.v[k][...] = v[k]
    if opt is not None:
        opt.t = step
    return step
