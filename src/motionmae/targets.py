"""Reconstruction targets for masked tokens.

Two kinds: the raw pixel content of each masked cube (space), and the
absolute temporal difference of nearby frames at each masked cube's anchor
frame (time). The time target for the token at temporal slot tau is the
per-pixel |clip[min(ct*tau + gap, T-1)] - clip[ct*tau]| patch, flattened in
(row, col, channel) order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tokenizer import Mask, TokenGrid, check_clip, patchify

# the reconstruction heads each target kind trains, in decoding order
HEADS_OF_KIND = {"frame": ("space",), "motion": ("time",), "both": ("space", "time")}
TARGET_KINDS = tuple(HEADS_OF_KIND)


@dataclass(frozen=True)
class TargetConfig:
    kind: str = "both"
    gap: int = 1
    normalize_space: bool = False

    def __post_init__(self):
        if self.kind not in TARGET_KINDS:
            raise ValueError(f"kind {self.kind!r} is not one of {TARGET_KINDS}")
        if self.gap < 1:
            raise ValueError(f"gap must be >= 1, got {self.gap}")


@dataclass(frozen=True)
class TargetBundle:
    """Per-masked-token targets; absent heads are None."""

    space: np.ndarray | None
    time: np.ndarray | None


def make_space_target(
    clip: np.ndarray, mask: Mask, grid: TokenGrid, normalize_per_patch: bool = False
) -> np.ndarray:
    """Masked tokens' pixel content, optionally standardized per token row:
    (M, D) rows of one clip, or (..., M, D) of clips (..., T, H, W, C)."""
    check_clip(clip, grid)
    tokens, _ = patchify(clip, grid.ct, grid.cp)
    rows = mask.hidden(tokens).astype(np.float32, copy=False)
    if not normalize_per_patch:
        return rows
    mean = rows.mean(axis=-1, keepdims=True)
    std = np.maximum(rows.std(axis=-1, keepdims=True), np.float32(1e-6))
    return (rows - mean) / std


def make_motion_target(
    clip: np.ndarray, mask: Mask, grid: TokenGrid, gap: int
) -> np.ndarray:
    """Temporal-difference patches at each masked token's anchor frame:
    (M, cp*cp*C) rows of one clip, or (..., M, cp*cp*C) of clips. The
    difference |clip[min(ct*tau + gap, T-1)] - clip[ct*tau]| is taken at the
    anchor frames only."""
    check_clip(clip, grid)
    T = clip.shape[-4]
    if not 1 <= gap < T:
        raise ValueError(f"gap must satisfy 1 <= gap < T={T}, got {gap}")
    ahead = np.minimum(np.arange(0, T, grid.ct) + gap, T - 1)
    anchors = np.abs(clip[..., ahead, :, :, :] - clip[..., :: grid.ct, :, :, :])
    maps, _ = patchify(anchors, 1, grid.cp)
    return np.ascontiguousarray(mask.hidden(maps), dtype=np.float32)


def make_targets(
    clip: np.ndarray, mask: Mask, grid: TokenGrid, cfg: TargetConfig
) -> TargetBundle:
    """Build whichever targets the configured kind requests, for one clip
    and its Mask or for stacked clips and a batch Mask."""
    space = time = None
    if "space" in HEADS_OF_KIND[cfg.kind]:
        space = make_space_target(clip, mask, grid, cfg.normalize_space)
    if "time" in HEADS_OF_KIND[cfg.kind]:
        time = make_motion_target(clip, mask, grid, cfg.gap)
    return TargetBundle(space=space, time=time)
