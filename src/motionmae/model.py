"""Asymmetric masked autoencoder and finetuning classifier.

The encoder is a pre-norm transformer over visible tokens only (no class
token; joint attention across all visible spacetime positions). Each decoder
head projects the latents down, scatters them into the full token grid with
a learned mask token at hidden positions, adds head-specific position codes,
runs its own blocks, and projects to that head's output dimension. The
"parallel" architecture gives each head an independent stack; "shared" runs
one stack with two output projections.

Parameters live in a flat dict keyed by stable path strings — that dict is
the whole model state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor
from .tokenizer import Mask, TokenGrid, patchify, sincos_posenc, split_visible

DECODER_ARCHS = ("parallel", "shared")
HEADS = ("space", "time")
HEADS_OF_KIND = {"frame": ("space",), "motion": ("time",), "both": HEADS}


@dataclass(frozen=True)
class EncoderConfig:
    depth: int
    embed_dim: int
    heads: int
    mlp_ratio: float
    token_dim: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.heads < 1 or self.embed_dim % self.heads:
            raise ValueError(f"heads {self.heads} do not divide embed_dim "
                             f"{self.embed_dim}")

    @property
    def mlp_dim(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)


@dataclass(frozen=True)
class DecoderConfig:
    depth: int
    embed_dim: int
    heads: int
    mlp_ratio: float
    space_dim: int
    time_dim: int
    arch: str = "parallel"

    def __post_init__(self):
        # depth 0 is tolerated here so tests can build scatter-only stubs;
        # run configs reject it before anything reaches this type
        if self.heads < 1 or self.embed_dim % self.heads:
            raise ValueError(f"heads {self.heads} do not divide embed_dim "
                             f"{self.embed_dim}")
        if self.arch not in DECODER_ARCHS:
            raise ValueError(f"arch {self.arch!r} is not one of {DECODER_ARCHS}")

    @property
    def mlp_dim(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)

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
    """Normal draws redrawn until they land within two standard deviations."""
    vals = rng.normal(0.0, std, size=shape)
    for _ in range(100):
        bad = np.abs(vals) > 2 * std
        if not bad.any():
            break
        vals[bad] = rng.normal(0.0, std, size=int(bad.sum()))
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
        ("ln1.g", None), ("ln1.b", None),
        ("attn.wq", (dim, dim)), ("attn.wk", (dim, dim)),
        ("attn.wv", (dim, dim)), ("attn.wo", (dim, dim)),
        ("attn.bq", (dim,)), ("attn.bk", (dim,)),
        ("attn.bv", (dim,)), ("attn.bo", (dim,)),
        ("ln2.g", None), ("ln2.b", None),
        ("mlp.w1", (dim, mlp_dim)), ("mlp.b1", (mlp_dim,)),
        ("mlp.w2", (mlp_dim, dim)), ("mlp.b2", (dim,)),
    ]:
        key = f"{prefix}.{name}"
        if name in ("ln1.g", "ln2.g"):
            out[key] = Tensor(np.ones(dim, dtype=dtype))
        elif name in ("ln1.b", "ln2.b"):
            out[key] = Tensor(np.zeros(dim, dtype=dtype))
        elif name.startswith(("attn.b", "mlp.b")):
            out[key] = Tensor(np.zeros(shape, dtype=dtype))
        else:
            out[key] = Tensor(_proj_init(rng, shape).astype(dtype))


def _stack_params(out, prefix, depth, dim, mlp_dim, rng, dtype):
    for i in range(depth):
        _block_params(out, f"{prefix}.block{i}", dim, mlp_dim, rng, dtype)
    out[f"{prefix}.ln_out.g"] = Tensor(np.ones(dim, dtype=dtype))
    out[f"{prefix}.ln_out.b"] = Tensor(np.zeros(dim, dtype=dtype))


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
        stacks = ("shared",) if dec.arch == "shared" else heads
        for stack in stacks:
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
    return nm.add(nm.matmul(x, params[f"{prefix}.w"]), params[f"{prefix}.b"])


def _attention(x: Tensor, params, prefix: str, heads: int) -> Tensor:
    n, dim = x.shape
    dh = dim // heads

    def split(t):  # (N, E) -> (heads, N, dh)
        return nm.transpose(nm.reshape(t, (n, heads, dh)), (1, 0, 2))

    q = split(nm.add(nm.matmul(x, params[f"{prefix}.wq"]), params[f"{prefix}.bq"]))
    k = split(nm.add(nm.matmul(x, params[f"{prefix}.wk"]), params[f"{prefix}.bk"]))
    v = split(nm.add(nm.matmul(x, params[f"{prefix}.wv"]), params[f"{prefix}.bv"]))

    scores = nm.scale(nm.matmul(q, nm.transpose(k, (0, 2, 1))), 1.0 / math.sqrt(dh))
    probs = nm.softmax(scores, axis=-1)
    mixed = nm.reshape(nm.transpose(nm.matmul(probs, v), (1, 0, 2)), (n, dim))
    return nm.add(nm.matmul(mixed, params[f"{prefix}.wo"]), params[f"{prefix}.bo"])


def _block(x: Tensor, params, prefix: str, heads: int) -> Tensor:
    h = nm.layer_norm(x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    x = nm.add(x, _attention(h, params, f"{prefix}.attn", heads))
    h = nm.layer_norm(x, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
    return nm.add(x, _mlp(h, params, prefix))


def _mlp(h: Tensor, params, prefix: str) -> Tensor:
    h = nm.add(nm.matmul(h, params[f"{prefix}.mlp.w1"]), params[f"{prefix}.mlp.b1"])
    h = nm.gelu(h)
    return nm.add(nm.matmul(h, params[f"{prefix}.mlp.w2"]), params[f"{prefix}.mlp.b2"])


def _run_stack(x: Tensor, params, prefix: str, depth: int, heads: int) -> Tensor:
    for i in range(depth):
        x = _block(x, params, f"{prefix}.block{i}", heads)
    return nm.layer_norm(x, params[f"{prefix}.ln_out.g"], params[f"{prefix}.ln_out.b"])


# ---------------------------------------------------------------------------
# Encoder / decoder / classifier
# ---------------------------------------------------------------------------


def encode(
    visible_tokens,
    visible_indices,
    grid: TokenGrid,
    cfg: EncoderConfig,
    params: dict[str, Tensor],
) -> Tensor:
    """Embed and contextualize the visible tokens; one latent per input row."""
    dtype = params_dtype(params)
    visible_tokens = Tensor(np.ascontiguousarray(visible_tokens, dtype=dtype))
    if visible_tokens.shape[0] < 1:
        raise ValueError("encoder needs at least one visible token")
    x = _linear(visible_tokens, params, "patch_proj")
    pos = sincos_posenc(grid, cfg.embed_dim)[np.asarray(visible_indices)]
    x = nm.add(x, Tensor(pos.astype(dtype)))
    return _run_stack(x, params, "enc", cfg.depth, cfg.heads)


def decode(
    latents: Tensor,
    mask: Mask,
    grid: TokenGrid,
    cfg: DecoderConfig,
    params: dict[str, Tensor],
    heads: tuple[str, ...] = HEADS,
) -> dict[str, Tensor]:
    """Predict each head's output at every grid position (visible included).

    A shared decoder runs its one stack once and feeds every head from it.
    """
    for head in heads:
        if f"dec.{head}.out.w" not in params:
            raise ValueError(f"no {head!r} head in this model (unknown, or "
                             "disabled by the target kind)")
    dtype = params_dtype(params)
    n = grid.num_tokens
    vis_idx = mask.visible_indices
    mask_idx = mask.masked_indices
    if latents.shape[0] != vis_idx.size:
        raise ValueError(f"{latents.shape[0]} latents for {vis_idx.size} visible tokens")

    stacks = {"shared": heads} if cfg.arch == "shared" else {h: (h,) for h in heads}
    preds = {}
    for stack, fed in stacks.items():
        y = _linear(latents, params, f"dec.{stack}.embed")
        placed = nm.scatter_rows(y, vis_idx, n)
        if mask_idx.size:
            fills = nm.broadcast_rows(params[f"dec.{stack}.mask_token"], mask_idx.size)
            placed = nm.add(placed, nm.scatter_rows(fills, mask_idx, n))
        pos = sincos_posenc(grid, cfg.embed_dim)
        placed = nm.add(placed, Tensor(pos.astype(dtype)))
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
    target_kind: str = "both",
) -> tuple[Tensor | None, Tensor | None]:
    """Masked forward pass: returns (space predictions, time predictions),
    each N x out_dim, with disabled heads as None."""
    tokens, got = patchify(clip, grid.ct, grid.cp)
    if got != grid:
        raise ValueError(f"clip tokenizes to {got}, expected {grid}")
    visible, vis_idx, _ = split_visible(tokens, mask)
    latents = encode(visible, vis_idx, grid, enc_cfg, params)
    preds = decode(latents, mask, grid, dec_cfg, params, HEADS_OF_KIND[target_kind])
    return preds.get("space"), preds.get("time")


def classify(
    clip: np.ndarray,
    grid: TokenGrid,
    cfg: EncoderConfig,
    params: dict[str, Tensor],
    num_classes: int,
) -> Tensor:
    """Encode every token (nothing masked), mean-pool, project to logits."""
    if params["cls.b"].shape != (num_classes,):
        raise ValueError(f"classifier head has {params['cls.b'].shape[0]} classes, "
                         f"asked for {num_classes}")
    tokens, got = patchify(clip, grid.ct, grid.cp)
    if got != grid:
        raise ValueError(f"clip tokenizes to {got}, expected {grid}")
    latents = encode(tokens, np.arange(grid.num_tokens), grid, cfg, params)
    pooled = nm.mean_axis(latents, axis=0)
    return nm.add(nm.matmul(nm.reshape(pooled, (1, cfg.embed_dim)), params["cls.w"]),
                  params["cls.b"])
