"""Asymmetric masked autoencoder and finetuning classifier.

The encoder is a pre-norm transformer over visible tokens only (no class
token; joint attention across all visible spacetime positions). Each decoder
head projects the latents down, scatters them into the full token grid with
a learned mask token at hidden positions, adds head-specific position codes,
runs its own blocks, and projects to that head's output dimension. The
"parallel" architecture gives each head an independent stack; "shared" runs
one stack with two output projections.

Every forward function takes one clip or a batch along a leading axis, and a
batch runs as one graph: a batch's masks are one Mask of (B, N) bits whose
rows hide equal counts, so the visible tokens form a rectangular (B, Nv, D)
array.

Parameters live in a flat dict keyed by stable path strings — that dict is
the whole model state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor
from .targets import HEADS_OF_KIND
from .tokenizer import Mask, TokenGrid, check_clip, patchify, sincos_posenc

DECODER_ARCHS = ("parallel", "shared")


@dataclass(frozen=True)
class _StackConfig:
    """The sizes of one transformer stack, checked when built."""

    depth: int
    embed_dim: int
    heads: int
    mlp_ratio: float

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.embed_dim < 6:  # a sin/cos pair for each of the t, h, w axes
            raise ValueError(f"embed_dim must be >= 6 for three sin/cos position "
                             f"axes, got {self.embed_dim}")
        if self.heads < 1 or self.embed_dim % self.heads:
            raise ValueError(f"heads {self.heads} do not divide embed_dim "
                             f"{self.embed_dim}")
        if not 0.0 <= self.mlp_ratio < math.inf:  # `not` also rejects NaN
            raise ValueError(f"mlp_ratio must be finite and >= 0, got {self.mlp_ratio}")

    @property
    def mlp_dim(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)


@dataclass(frozen=True)
class EncoderConfig(_StackConfig):
    token_dim: int


@dataclass(frozen=True)
class DecoderConfig(_StackConfig):
    space_dim: int
    time_dim: int
    arch: str = "parallel"

    def __post_init__(self):
        super().__post_init__()
        if self.arch not in DECODER_ARCHS:
            raise ValueError(f"arch {self.arch!r} is not one of {DECODER_ARCHS}")

    def out_dim(self, head: str) -> int:
        if head == "space":
            return self.space_dim
        if head == "time":
            return self.time_dim
        raise ValueError(f"unknown head {head!r}")


# architecture presets; token/output dims are filled in from the grid
_PRESETS = {
    "tiny": dict(enc=(2, 32, 4, 2.0), dec=(1, 16, 2, 2.0)),
    "desk": dict(enc=(4, 192, 4, 4.0), dec=(2, 96, 2, 4.0)),
    "base": dict(enc=(12, 768, 12, 4.0), dec=(4, 384, 6, 4.0)),
}


def preset_configs(name: str, grid: TokenGrid, arch: str = "parallel"):
    """Encoder/decoder configs for a named size, shaped to the token grid."""
    if name not in _PRESETS:
        raise ValueError(f"preset {name!r} is not one of {sorted(_PRESETS)}")
    e = _PRESETS[name]["enc"]
    d = _PRESETS[name]["dec"]
    enc = EncoderConfig(depth=e[0], embed_dim=e[1], heads=e[2], mlp_ratio=e[3],
                        token_dim=grid.token_dim)
    dec = DecoderConfig(depth=d[0], embed_dim=d[1], heads=d[2], mlp_ratio=d[3],
                        space_dim=grid.token_dim, time_dim=grid.motion_dim,
                        arch=arch)
    return enc, dec


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def _trunc_normal(rng, shape, std=0.02):
    """Normal draws redrawn until they land within two standard deviations.

    Each round redraws the values still out of range, in index order, and
    checks only those it redrew.
    """
    vals = rng.normal(0.0, std, size=shape)
    flat = vals.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2 * std)
    for _ in range(100):
        if not bad.size:
            break
        redrawn = rng.normal(0.0, std, size=bad.size)
        flat[bad] = redrawn
        bad = bad[np.abs(redrawn) > 2 * std]
    return np.clip(vals, -2 * std, 2 * std)


def _proj_init(rng, shape):
    """Fan-scaled truncated normal for projection matrices.

    A flat std starves narrow models: feature magnitude falls by ~std*sqrt(dim)
    per layer, which at desk-scale widths buries token content under the
    unit-scale positional code.
    """
    fan_in, fan_out = shape
    return _trunc_normal(rng, shape, math.sqrt(2.0 / (fan_in + fan_out)))


def _block_params(out, prefix, dim, mlp_dim, rng, dtype):
    for name, shape in [
        ("ln1.g", (dim,)), ("ln1.b", (dim,)),
        ("attn.wq", (dim, dim)), ("attn.wk", (dim, dim)),
        ("attn.wv", (dim, dim)), ("attn.wo", (dim, dim)),
        ("attn.bq", (dim,)), ("attn.bv", (dim,)), ("attn.bo", (dim,)),
        ("ln2.g", (dim,)), ("ln2.b", (dim,)),
        ("mlp.w1", (dim, mlp_dim)), ("mlp.b1", (mlp_dim,)),
        ("mlp.w2", (mlp_dim, dim)), ("mlp.b2", (dim,)),
    ]:
        key = f"{prefix}.{name}"
        if name.endswith(".g"):
            out[key] = Tensor(np.ones(shape, dtype=dtype))
        elif name.split(".")[1].startswith("b"):  # a LayerNorm shift or a bias
            out[key] = Tensor(np.zeros(shape, dtype=dtype))
        else:
            out[key] = Tensor(_proj_init(rng, shape).astype(dtype))


def _stack_params(out, prefix, depth, dim, mlp_dim, rng, dtype):
    for i in range(depth):
        _block_params(out, f"{prefix}.block{i}", dim, mlp_dim, rng, dtype)
    out[f"{prefix}.ln_out.g"] = Tensor(np.ones(dim, dtype=dtype))
    out[f"{prefix}.ln_out.b"] = Tensor(np.zeros(dim, dtype=dtype))


def _decoder_stacks(arch: str, heads: tuple[str, ...]) -> dict[str, tuple[str, ...]]:
    """The decoder's stacks, in build order, each with the heads it feeds:
    one "shared" stack feeding every head, or one stack per head."""
    return {"shared": heads} if arch == "shared" else {h: (h,) for h in heads}


def init_params(
    enc: EncoderConfig,
    dec: DecoderConfig | None,
    seed: int,
    target_kind: str = "both",
    num_classes: int | None = None,
    dtype=np.float32,
) -> dict[str, Tensor]:
    """Fresh parameter dict: fan-scaled truncated-normal projections, zero
    biases, unit layer-norm gains, std-0.02 mask tokens. Only the heads the
    target kind needs are built; pass dec=None for an encoder-only
    (classification) model."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    params["patch_proj.w"] = Tensor(_proj_init(rng, (enc.token_dim, enc.embed_dim)).astype(dtype))
    params["patch_proj.b"] = Tensor(np.zeros(enc.embed_dim, dtype=dtype))
    _stack_params(params, "enc", enc.depth, enc.embed_dim, enc.mlp_dim, rng, dtype)

    if dec is not None:
        heads = HEADS_OF_KIND[target_kind]
        for stack in _decoder_stacks(dec.arch, heads):
            params[f"dec.{stack}.embed.w"] = Tensor(
                _proj_init(rng, (enc.embed_dim, dec.embed_dim)).astype(dtype))
            params[f"dec.{stack}.embed.b"] = Tensor(np.zeros(dec.embed_dim, dtype=dtype))
            params[f"dec.{stack}.mask_token"] = Tensor(
                _trunc_normal(rng, (dec.embed_dim,)).astype(dtype))
            _stack_params(params, f"dec.{stack}", dec.depth, dec.embed_dim,
                          dec.mlp_dim, rng, dtype)
        for head in heads:
            params[f"dec.{head}.out.w"] = Tensor(
                _proj_init(rng, (dec.embed_dim, dec.out_dim(head))).astype(dtype))
            params[f"dec.{head}.out.b"] = Tensor(np.zeros(dec.out_dim(head), dtype=dtype))

    if num_classes is not None:
        params["cls.w"] = Tensor(_proj_init(rng, (enc.embed_dim, num_classes)).astype(dtype))
        params["cls.b"] = Tensor(np.zeros(num_classes, dtype=dtype))
    return params


def params_dtype(params: dict[str, Tensor]):
    return next(iter(params.values())).dtype


# ---------------------------------------------------------------------------
# Transformer pieces
# ---------------------------------------------------------------------------


def _linear(x: Tensor, params, prefix: str) -> Tensor:
    return nm.linear(x, params[f"{prefix}.w"], params[f"{prefix}.b"])


_ATTENTION = ("ln1.g", "ln1.b", "attn.wq", "attn.bq", "attn.wk", "attn.wv",
              "attn.bv", "attn.wo", "attn.bo")
_MLP = ("ln2.g", "ln2.b", "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2")


def _block(x: Tensor, params, prefix: str, heads: int) -> Tensor:
    """One pre-norm block over (..., N, E) rows: self-attention, each leading
    index (one sample of a batch) attending only within itself, then the
    MLP, each behind its LayerNorm and with a residual add."""
    x = nm.add(x, nm.attention(x, *(params[f"{prefix}.{n}"] for n in _ATTENTION),
                               heads))
    return nm.add(x, nm.mlp(x, *(params[f"{prefix}.{n}"] for n in _MLP)))


def _run_stack(x: Tensor, params, prefix: str, depth: int, heads: int) -> Tensor:
    for i in range(depth):
        x = _block(x, params, f"{prefix}.block{i}", heads)
    return nm.layer_norm(x, params[f"{prefix}.ln_out.g"], params[f"{prefix}.ln_out.b"])


# ---------------------------------------------------------------------------
# Encoder / decoder / classifier
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _posenc(grid: TokenGrid, dim: int, dtype: np.dtype) -> np.ndarray:
    """Position codes of a grid at one width and dtype, built once and
    shared read-only."""
    codes = sincos_posenc(grid, dim).astype(dtype)
    codes.setflags(write=False)
    return codes


def _tokens(clips, grid: TokenGrid) -> np.ndarray:
    """Cube tokens of one clip (N, D), or of a stack of clips (B, N, D)."""
    clips = np.asarray(clips)
    check_clip(clips, grid)
    return patchify(clips, grid.ct, grid.cp)[0]


def encode(
    tokens,
    mask: Mask,
    grid: TokenGrid,
    cfg: EncoderConfig,
    params: dict[str, Tensor],
) -> Tensor:
    """Embed and contextualize the tokens a Mask leaves visible; one latent
    per visible token.

    Takes (N, D) tokens with a Mask of (N,) bits, giving (Nv, E) latents, or
    a batch of (B, N, D) tokens with a Mask of (B, N) bits, giving
    (B, Nv, E).
    """
    dtype = params_dtype(params)
    visible = Tensor(np.ascontiguousarray(mask.visible(tokens), dtype=dtype))
    if visible.shape[-2] < 1:
        raise ValueError("encoder needs at least one visible token")
    x = _linear(visible, params, "patch_proj")
    codes = _posenc(grid, cfg.embed_dim, dtype)
    pos = mask.visible(np.broadcast_to(codes, mask.bits.shape + codes.shape[-1:]))
    x = nm.add(x, Tensor(pos))
    return _run_stack(x, params, "enc", cfg.depth, cfg.heads)


def decode(
    latents: Tensor,
    mask: Mask,
    grid: TokenGrid,
    cfg: DecoderConfig,
    params: dict[str, Tensor],
) -> dict[str, Tensor]:
    """Predict the output of each head the parameters hold at every grid
    position (visible included).

    Takes (Nv, E) latents with a Mask of (N,) bits, giving (N, out)
    predictions, or (B, Nv, E) latents with a Mask of (B, N) bits, giving
    (B, N, out). A shared decoder runs its one stack once and feeds every
    head from it.
    """
    heads = tuple(h for h in HEADS_OF_KIND["both"] if f"dec.{h}.out.w" in params)
    dtype = params_dtype(params)
    bits = mask.bits
    if bits.shape[-1] != grid.num_tokens:
        raise ValueError(f"mask covers {bits.shape[-1]} tokens, grid has "
                         f"{grid.num_tokens}")
    hidden = Tensor(bits[..., None].astype(dtype))  # 1 at hidden positions
    pos = Tensor(_posenc(grid, cfg.embed_dim, dtype))

    preds = {}
    for stack, fed in _decoder_stacks(cfg.arch, heads).items():
        y = _linear(latents, params, f"dec.{stack}.embed")
        placed = nm.scatter_rows(y, ~bits)
        placed = nm.add(placed, nm.mul(hidden, params[f"dec.{stack}.mask_token"]))
        placed = nm.add(placed, pos)
        out = _run_stack(placed, params, f"dec.{stack}", cfg.depth, cfg.heads)
        for head in fed:
            preds[head] = _linear(out, params, f"dec.{head}.out")
    return preds


def forward_pretrain(
    clip: np.ndarray,
    mask: Mask,
    grid: TokenGrid,
    enc_cfg: EncoderConfig,
    dec_cfg: DecoderConfig,
    params: dict[str, Tensor],
) -> tuple[Tensor | None, Tensor | None]:
    """Masked forward pass: returns (space predictions, time predictions),
    with the heads the parameters lack as None.

    One clip (T, H, W, C) with a Mask of (N,) bits gives N x out_dim
    predictions; B stacked clips (B, T, H, W, C) with a Mask of (B, N) bits
    run as one batch and give B x N x out_dim.
    """
    latents = encode(_tokens(clip, grid), mask, grid, enc_cfg, params)
    preds = decode(latents, mask, grid, dec_cfg, params)
    return preds.get("space"), preds.get("time")


def classify(
    clips: np.ndarray | list[np.ndarray],
    grid: TokenGrid,
    cfg: EncoderConfig,
    params: dict[str, Tensor],
) -> Tensor:
    """Encode every token (nothing masked), mean-pool, project to logits:
    (B, classes) for a sequence of B clips, (1, classes) for one clip, with
    as many classes as the `cls` head has."""
    tokens = _tokens(clips, grid)
    if tokens.ndim == 2:
        tokens = tokens[None]
    latents = encode(tokens, Mask(np.zeros(tokens.shape[:-1], dtype=bool)), grid,
                     cfg, params)
    return _linear(nm.mean_axis(latents, axis=1), params, "cls")
