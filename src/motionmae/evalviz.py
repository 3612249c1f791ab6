"""Reconstruction image grids and accuracy metrics.

The reconstruction grid stacks four rows of frames: the original clip, the
masked clip (hidden cubes painted 0.5 gray), the reconstruction (visible
cubes passed through untouched, hidden ones replaced by space-head output),
and the time-head output rendered as amplified grayscale. Images are written
as binary PPM (P6), quantized to 8 bits exactly once at write time.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from .tokenizer import Mask, TokenGrid, check_clip, patchify, unpatchify
from .videodata import write_atomic

MOTION_RENDER_GAIN = 3.0  # raw temporal differences are faint; amplify for display


# ---------------------------------------------------------------------------
# PPM files
# ---------------------------------------------------------------------------


def write_ppm(pixels: np.ndarray, path) -> None:
    """Write an (H, W, 3) float buffer in [0, 1] as binary PPM, maxval 255."""
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) pixels, got {pixels.shape}")
    h, w, _ = pixels.shape
    quantized = np.clip(np.rint(pixels * 255.0), 0, 255).astype(np.uint8)
    write_atomic(path, (f"P6\n{w} {h}\n255\n".encode(), quantized.tobytes()))


class PPMFormatError(ValueError):
    """A file that is not a binary PPM this module can read."""


def read_ppm(path) -> np.ndarray:
    """Parse a binary PPM into a uint8 (H, W, 3) array; a malformed file
    raises PPMFormatError."""
    blob = Path(path).read_bytes()
    if blob[:2] != b"P6":
        raise PPMFormatError(f"{path}: not a P6 PPM file")
    # header = magic, width, height, maxval as whitespace-separated decimal
    # tokens, with '#' comments allowed; one whitespace byte ends the header
    tokens, pos = [], 2
    while len(tokens) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        token = blob[start:pos]
        # bytes.isdigit() takes ASCII digits only; 20 digits outgrow any file
        if not (token.isdigit() and len(token) <= 20 and int(token) > 0):
            what = f"has {token[:24]!r}" if token else "ends"
            raise PPMFormatError(f"{path}: header {what} where a positive "
                                 f"decimal {('width', 'height', 'maxval')[len(tokens)]} "
                                 "belongs")
        tokens.append(int(token))
    pos += 1  # single whitespace after maxval
    w, h, maxval = tokens
    if maxval != 255:
        raise PPMFormatError(f"{path}: unsupported maxval {maxval}")
    if len(blob) - pos < h * w * 3:
        raise PPMFormatError(f"{path}: pixel payload cut short")
    data = np.frombuffer(blob, dtype=np.uint8, offset=pos, count=h * w * 3)
    return data.reshape(h, w, 3).copy()


# ---------------------------------------------------------------------------
# Reconstruction grid
# ---------------------------------------------------------------------------


def _to_rgb(frames: np.ndarray) -> np.ndarray:
    """3-channel frames as they are, others as the gray of their channel mean."""
    if frames.shape[-1] == 3:
        return frames
    return np.repeat(frames.mean(axis=-1, keepdims=True), 3, axis=-1)


def _motion_frames(time_preds: np.ndarray, grid: TokenGrid) -> np.ndarray:
    """Assemble per-token time-head rows into one map per temporal slot,
    rendered as amplified grayscale."""
    maps = unpatchify(time_preds, dataclasses.replace(grid, ct=1))
    gray = np.clip(maps.mean(axis=-1, keepdims=True) * MOTION_RENDER_GAIN, 0.0, 1.0)
    return np.repeat(gray, 3, axis=-1)


def build_recon_grid(
    clip: np.ndarray,
    mask: Mask,
    pred_space: np.ndarray | None,
    pred_time: np.ndarray | None,
    grid: TokenGrid,
) -> np.ndarray:
    """Four-row frame grid as a float (4H, TW, 3) buffer in [0, 1]."""
    T, H, W, _ = clip.shape
    check_clip(clip, grid)
    tokens, _ = patchify(clip, grid.ct, grid.cp)
    hidden = mask.bits

    masked_tokens = tokens.copy()
    masked_tokens[hidden] = 0.5
    row_masked = unpatchify(masked_tokens, grid)

    recon_tokens = masked_tokens.copy()
    if pred_space is not None:
        recon_tokens[hidden] = np.clip(pred_space[hidden], 0.0, 1.0)
    row_recon = unpatchify(recon_tokens, grid)

    if pred_time is not None:
        motion = _motion_frames(np.clip(pred_time, 0.0, None), grid)
        row_motion = np.repeat(motion, grid.ct, axis=0)[:T]
    else:
        row_motion = np.zeros((T, H, W, 3), dtype=np.float32)

    rows = [_to_rgb(clip), _to_rgb(row_masked), _to_rgb(row_recon), row_motion]
    buf = np.zeros((4 * H, T * W, 3), dtype=np.float32)
    for r, frames in enumerate(rows):
        for t in range(T):
            buf[r * H : (r + 1) * H, t * W : (t + 1) * W] = frames[t]
    return buf


def render_reconstruction(
    clip: np.ndarray,
    mask: Mask,
    pred_space: np.ndarray | None,
    pred_time: np.ndarray | None,
    grid: TokenGrid,
    path,
) -> None:
    """Write the reconstruction grid for one clip as a P6 PPM file."""
    write_ppm(build_recon_grid(clip, mask, pred_space, pred_time, grid), path)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def topk_accuracy(logits_list, labels, k: int) -> float:
    """Fraction of samples whose label ranks in the k largest logits.

    Equal logits rank by lower class index first.
    """
    if len(logits_list) != len(labels):
        raise ValueError(f"{len(logits_list)} logit rows vs {len(labels)} labels")
    if len(labels) == 0:
        raise ValueError("no samples")
    hits = 0
    for logits, label in zip(logits_list, labels):
        logits = np.asarray(logits).reshape(-1)
        if not 0 < k <= logits.size:
            raise ValueError(f"k={k} invalid for {logits.size} classes")
        order = np.argsort(-logits, kind="stable")
        hits += int(label in order[:k])
    return hits / len(labels)


def metrics_report(logits_list, labels) -> dict:
    """Top-1/top-5 summary in the shape downstream tooling expects."""
    num_classes = np.asarray(logits_list[0]).size
    return {
        "top1": topk_accuracy(logits_list, labels, 1),
        "top5": topk_accuracy(logits_list, labels, min(5, num_classes)),
        "n": len(labels),
    }
