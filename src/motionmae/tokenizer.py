"""Cube tokenization of clips, sinusoidal position codes, and token masking.

A clip (T, H, W, C) is partitioned into non-overlapping ct x cp x cp cubes;
each cube flattens to one token of dimension ct*cp*cp*C in (frame, row,
col, channel) order. Tokens are indexed (t*gh + h)*gw + w over the
(gt, gh, gw) grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

MASK_STRATEGIES = ("random", "tube", "time_only")


@dataclass(frozen=True)
class TokenGrid:
    """Geometry of the cube partition of one clip."""

    gt: int  # temporal slots
    gh: int  # spatial rows
    gw: int  # spatial cols
    ct: int  # cube frames
    cp: int  # cube pixels per spatial side
    channels: int

    @property
    def num_tokens(self) -> int:
        return self.gt * self.gh * self.gw

    @property
    def token_dim(self) -> int:
        return self.ct * self.cp * self.cp * self.channels

    @property
    def motion_dim(self) -> int:
        return self.cp * self.cp * self.channels

    @property
    def clip_shape(self) -> tuple[int, int, int, int]:
        return (self.gt * self.ct, self.gh * self.cp, self.gw * self.cp, self.channels)


@dataclass(frozen=True)
class Mask:
    """Hidden tokens of one clip, (N,) bits, or of a batch of clips, (B, N)
    bits; bits[..., i] True means token i is hidden.

    A batch is rectangular only if its rows hide equal counts. Every
    strategy hides a count fixed by (grid, ratio), so masks of one run
    always do; rows that differ are rejected rather than padded. The bits
    address every token row: `hidden` and `visible` cut (..., N, K) rows by
    them. The read-only (..., M) and (..., N - M) index arrays, ascending per
    row, are built on first read.
    """

    bits: np.ndarray

    def __post_init__(self):
        bits = np.array(self.bits, dtype=bool)
        counts = bits.sum(axis=-1)
        m = int(counts.max(initial=0))
        if (counts != m).any():
            raise ValueError(f"masks of one batch hide different token counts "
                             f"{sorted(set(counts.tolist()))}")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "num_masked", m)  # per clip

    def hidden(self, rows: np.ndarray) -> np.ndarray:
        """The (..., M, K) hidden rows of (..., N, K) rows."""
        return self._cut(rows, self.bits, self.num_masked)

    def visible(self, rows: np.ndarray) -> np.ndarray:
        """The (..., N - M, K) visible rows of (..., N, K) rows."""
        return self._cut(rows, ~self.bits, self.bits.shape[-1] - self.num_masked)

    def _cut(self, rows: np.ndarray, bits: np.ndarray, count: int) -> np.ndarray:
        if rows.shape[:-1] != bits.shape:
            raise ValueError(f"mask bits {bits.shape} do not cover the token "
                             f"rows {rows.shape[:-1]}")
        return rows[bits].reshape(bits.shape[:-1] + (count,) + rows.shape[-1:])

    @functools.cached_property
    def masked_indices(self) -> np.ndarray:
        return self._indices(self.bits, self.num_masked)

    @functools.cached_property
    def visible_indices(self) -> np.ndarray:
        return self._indices(~self.bits, self.bits.shape[-1] - self.num_masked)

    @staticmethod
    def _indices(bits: np.ndarray, count: int) -> np.ndarray:
        idx = np.nonzero(bits)[-1].reshape(bits.shape[:-1] + (count,))
        idx.setflags(write=False)
        return idx


# ---------------------------------------------------------------------------
# Patchify / unpatchify
# ---------------------------------------------------------------------------


def patchify(clip: np.ndarray, ct: int, cp: int) -> tuple[np.ndarray, TokenGrid]:
    """Cut a clip (T, H, W, C), or clips (..., T, H, W, C), into cube tokens;
    returns (tokens (..., N, D), grid)."""
    *lead, T, H, W, C = clip.shape
    if T % ct or H % cp or W % cp:
        raise ValueError(f"clip {clip.shape} not divisible by cube ({ct}, {cp}, {cp})")
    grid = TokenGrid(T // ct, H // cp, W // cp, ct, cp, C)
    r = len(lead)
    tokens = (
        clip.reshape(*lead, grid.gt, ct, grid.gh, cp, grid.gw, cp, C)
        .transpose(*range(r), *(r + a for a in (0, 2, 4, 1, 3, 5, 6)))
        .reshape(*lead, grid.num_tokens, grid.token_dim)
    )
    return np.ascontiguousarray(tokens), grid


def check_clip(clip: np.ndarray, grid: TokenGrid) -> None:
    """Reject a clip (T, H, W, C), or clips (..., T, H, W, C), that does not
    cut into `grid`'s cubes; one that does patchifies to `grid`."""
    if clip.shape[-4:] != grid.clip_shape:
        raise ValueError(f"clip {clip.shape} does not tokenize to {grid}")


def unpatchify(tokens: np.ndarray, grid: TokenGrid) -> np.ndarray:
    """Exact inverse of patchify."""
    if tokens.shape != (grid.num_tokens, grid.token_dim):
        raise ValueError(f"tokens {tokens.shape} do not match grid "
                         f"({grid.num_tokens}, {grid.token_dim})")
    clip = (
        tokens.reshape(grid.gt, grid.gh, grid.gw, grid.ct, grid.cp, grid.cp, grid.channels)
        .transpose(0, 3, 1, 4, 2, 5, 6)
        .reshape(grid.clip_shape)
    )
    return np.ascontiguousarray(clip)


# ---------------------------------------------------------------------------
# Positional encoding
# ---------------------------------------------------------------------------


def _axis_sincos(positions: np.ndarray, dim: int) -> np.ndarray:
    """Interleaved sin/cos code over one axis: out[:, 2i] = sin(p * w_i)."""
    half = dim // 2
    freqs = 1.0 / (10000.0 ** (np.arange(half) / half))
    angles = positions[:, None] * freqs[None, :]
    out = np.empty((positions.size, dim))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def sincos_posenc(grid: TokenGrid, embed_dim: int) -> np.ndarray:
    """Fixed 3-axis factorized sin-cos encoding, one row per token.

    embed_dim splits into three equal even parts (t, h, w axes); any
    remainder is zero-padded at the end.
    """
    if embed_dim < 6:
        raise ValueError(f"embed dim {embed_dim} too small for three sin/cos axes")
    part = 2 * (embed_dim // 6)
    tt, hh, ww = np.meshgrid(
        np.arange(grid.gt), np.arange(grid.gh), np.arange(grid.gw), indexing="ij"
    )
    codes = np.concatenate(
        [
            _axis_sincos(tt.reshape(-1).astype(np.float64), part),
            _axis_sincos(hh.reshape(-1).astype(np.float64), part),
            _axis_sincos(ww.reshape(-1).astype(np.float64), part),
        ],
        axis=1,
    )
    if codes.shape[1] < embed_dim:
        pad = np.zeros((grid.num_tokens, embed_dim - codes.shape[1]))
        codes = np.concatenate([codes, pad], axis=1)
    return codes


# ---------------------------------------------------------------------------
# Masking
# ---------------------------------------------------------------------------


def sample_mask(grid: TokenGrid, ratio: float, strategy: str, seed: int) -> Mask:
    """Draw a mask; hidden counts follow the floor rule at each strategy's
    granularity (tokens, spatial cells, or temporal slots)."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"ratio must lie in [0, 1), got {ratio}")
    if strategy not in MASK_STRATEGIES:
        raise ValueError(f"strategy {strategy!r} is not one of {MASK_STRATEGIES}")
    rng = np.random.default_rng(seed)
    n = grid.num_tokens
    bits = np.zeros(n, dtype=bool)
    if strategy == "random":
        k = int(ratio * n)
        bits[rng.permutation(n)[:k]] = True
    elif strategy == "tube":
        cells = grid.gh * grid.gw
        k = int(ratio * cells)
        chosen = rng.permutation(cells)[:k]
        plane = np.zeros(cells, dtype=bool)
        plane[chosen] = True
        bits = np.tile(plane, grid.gt)
    else:  # time_only
        k = min(int(ratio * grid.gt), grid.gt - 1)
        chosen = rng.permutation(grid.gt)[:k]
        grid3 = bits.reshape(grid.gt, grid.gh * grid.gw)
        grid3[chosen] = True
        bits = grid3.reshape(-1)
    return Mask(bits)
