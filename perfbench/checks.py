"""Output checks written apart from the program.

Each check returns a list of problems; an empty list means the output
passed. The readers and oracles here share no code with the package: clip
files are parsed from their documented layout, motion targets come from a
per-pixel loop, and mask sizes from each strategy's floor rule.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

CLIP_HEADER = struct.Struct("<4sB4I")  # magic, version, T, H, W, C


def read_clip(path) -> np.ndarray:
    """A `.mmae` clip: magic, version byte, u32 T/H/W/C, float32 LE payload."""
    blob = Path(path).read_bytes()
    magic, _, T, H, W, C = CLIP_HEADER.unpack_from(blob)
    if magic != b"MMAE":
        raise ValueError(f"{path}: not a clip file")
    payload = np.frombuffer(blob, dtype="<f4", offset=CLIP_HEADER.size)
    return payload.reshape(T, H, W, C)


def read_dataset(root) -> list[np.ndarray]:
    """Clips of a dataset directory, in labels.tsv order."""
    root = Path(root)
    ids = [line.split("\t")[0] for line in (root / "labels.tsv").read_text().splitlines()
           if line]
    return [read_clip(root / "clips" / f"{i}.mmae") for i in ids]


def mask_seed(seed: int, step: int, index: int) -> int:
    """The mask branch of the run-seed fan-out: (seed + 2, step, index)."""
    return int(np.random.SeedSequence([seed + 2, step, index]).generate_state(1)[0])


def expected_hidden(strategy: str, ratio: float, gt: int, gh: int, gw: int) -> int:
    """Hidden-token count fixed by the strategy's floor rule."""
    cells = gh * gw
    if strategy == "random":
        return math.floor(ratio * gt * cells)
    if strategy == "tube":
        return math.floor(ratio * cells) * gt
    if strategy == "time_only":
        return min(math.floor(ratio * gt), gt - 1) * cells
    raise ValueError(f"unknown mask strategy {strategy!r}")


def naive_motion_target(clip: np.ndarray, hidden, ct: int, cp: int, gap: int) -> np.ndarray:
    """|clip[min(t+gap, T-1)] - clip[t]| at each hidden cube's anchor frame,
    gathered pixel by pixel in (row, col, channel) order."""
    T, H, W, C = clip.shape
    gh, gw = H // cp, W // cp
    out = np.zeros((len(hidden), cp * cp * C), dtype=np.float32)
    for r, k in enumerate(hidden):
        tau, cell = divmod(int(k), gh * gw)
        h, w = divmod(cell, gw)
        t = ct * tau
        ahead = min(t + gap, T - 1)
        for y in range(cp):
            for x in range(cp):
                for c in range(C):
                    a = clip[ahead, h * cp + y, w * cp + x, c]
                    b = clip[t, h * cp + y, w * cp + x, c]
                    out[r, (y * cp + x) * C + c] = abs(a - b)
    return out


def check_motion_target(target, clip, hidden, ct: int, cp: int, gap: int) -> list[str]:
    want = naive_motion_target(clip, hidden, ct, cp, gap)
    if target is None or target.shape != want.shape:
        shape = None if target is None else target.shape
        return [f"motion target shape {shape}, expected {want.shape}"]
    if not np.array_equal(target, want):
        bad = np.argwhere(target != want)
        return [f"motion target differs from the per-pixel gather at "
                f"{len(bad)} entries, first at row/column {tuple(bad[0])}"]
    return []


def check_hidden_count(hidden: int, strategy: str, ratio: float, gt: int, gh: int,
                       gw: int) -> list[str]:
    want = expected_hidden(strategy, ratio, gt, gh, gw)
    if hidden != want:
        return [f"{strategy} mask at ratio {ratio} hides {hidden} tokens, "
                f"floor rule says {want}"]
    return []


def check_checkpoint(blob: bytes, name: str = "checkpoint") -> list[str]:
    """The trailing 32 bytes are the SHA-256 of everything before them."""
    if len(blob) < 33:
        return [f"{name}: only {len(blob)} bytes"]
    if hashlib.sha256(blob[:-32]).digest() != blob[-32:]:
        return [f"{name}: trailer is not the SHA-256 of the content"]
    return []


def logged_steps(total_steps: int, log_interval: int) -> list[int]:
    return [s for s in range(1, total_steps + 1)
            if s % log_interval == 0 or s == total_steps]


def check_loss_csv(text: str, total_steps: int, log_interval: int) -> list[str]:
    """One row per logged step, steps strictly increasing, finite values,
    and a last combined loss below the first."""
    lines = text.splitlines()
    if not lines or lines[0] != "step,loss,loss_space,loss_time":
        return ["loss.csv: missing header"]
    problems = []
    steps, losses = [], []
    for n, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        try:
            step = int(fields[0])
            values = [float(f) for f in fields[1:] if f]
        except (ValueError, IndexError):
            problems.append(f"loss.csv line {n}: unparsable {line!r}")
            continue
        if len(fields) != 4 or not values:
            problems.append(f"loss.csv line {n}: expected 4 fields, got {line!r}")
            continue
        if not all(math.isfinite(v) for v in values):
            problems.append(f"loss.csv line {n}: non-finite value")
        if steps and step <= steps[-1]:
            problems.append(f"loss.csv line {n}: step {step} after {steps[-1]}")
        steps.append(step)
        losses.append(values[0])
    want = logged_steps(total_steps, log_interval)
    if steps != want:
        problems.append(f"loss.csv: logged steps {steps}, expected {want}")
    if losses and not losses[-1] < losses[0]:
        problems.append(f"loss.csv: last loss {losses[-1]} not below first {losses[0]}")
    return problems


def last_epoch_loss(text: str, steps_per_epoch: int) -> float:
    """Mean combined loss of the last `steps_per_epoch` rows of loss.csv."""
    rows = text.splitlines()[1:][-steps_per_epoch:]
    return sum(float(row.split(",")[1]) for row in rows) / len(rows)


def check_report(text: str, n_val: int) -> list[str]:
    """report.json counts every val clip and holds a top-1 in [0, 1]."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as e:
        return [f"report.json: not JSON ({e})"]
    problems = []
    if report.get("n") != n_val:
        problems.append(f"report.json: n={report.get('n')}, {n_val} val clips")
    top1 = report.get("top1")
    if not isinstance(top1, (int, float)) or not 0.0 <= top1 <= 1.0:
        problems.append(f"report.json: top1={top1!r} outside [0, 1]")
    return problems


def check_identical(digests: list[dict]) -> list[str]:
    """Every run of a workload at one seed wrote byte-identical files."""
    problems = []
    for i, d in enumerate(digests[1:], start=2):
        for name, digest in d.items():
            if digest != digests[0].get(name):
                problems.append(f"round {i}: {name} differs from round 1")
    return problems
