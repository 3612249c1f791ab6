import tracemalloc

import numpy as np
import pytest

from motionmae import model as md
from motionmae import numerics as nm
from motionmae import tokenizer as tk
from motionmae import videodata as vd
from motionmae.numerics import Tensor


def _tiny_setup(seed=0, ratio=0.5, target_kind="both", dtype=np.float32,
                arch="parallel"):
    clip = np.random.default_rng(seed).uniform(size=(8, 16, 16, 1)).astype(np.float32)
    _, grid = tk.patchify(clip, 2, 4)
    enc, dec = md.preset_configs("tiny", grid, arch=arch)
    params = md.init_params(enc, dec, seed=seed + 1, target_kind=target_kind,
                            dtype=dtype)
    mask = tk.sample_mask(grid, ratio, "random", seed=seed + 2)
    return clip, grid, enc, dec, params, mask


# ---- encode ----


def test_encode_row_count_matches_visible():
    clip, grid, enc, dec, params, mask = _tiny_setup(ratio=0.75)
    tokens, _ = tk.patchify(clip, 2, 4)
    latents = md.encode(tokens, mask, grid, enc, params)
    assert latents.shape == (grid.num_tokens - mask.num_masked, enc.embed_dim)


def test_encode_rejects_empty_visible_set():
    clip, grid, enc, dec, params, mask = _tiny_setup()
    tokens, _ = tk.patchify(clip, 2, 4)
    every = tk.Mask(np.ones(grid.num_tokens, dtype=bool))
    with pytest.raises(ValueError, match="at least one visible token"):
        md.encode(tokens, every, grid, enc, params)


def test_encoder_blind_to_masked_pixels():
    """Scribbling over masked cubes must not change the latents at all."""
    clip, grid, enc, dec, params, mask = _tiny_setup(ratio=0.75)
    tokens, _ = tk.patchify(clip, 2, 4)

    vandalized = tokens.copy()
    vandalized[mask.masked_indices] = 0.123
    clip2 = tk.unpatchify(vandalized, grid)

    def latents_of(c):
        t, _ = tk.patchify(c, 2, 4)
        return md.encode(t, mask, grid, enc, params).data

    assert (latents_of(clip) == latents_of(clip2)).all()


def test_encode_matches_straight_line_oracle():
    """Depth-1 block on two tokens, re-derived step by step in plain numpy."""
    grid = tk.TokenGrid(2, 1, 1, 1, 2, 1)  # two tokens of dim 4
    enc = md.EncoderConfig(depth=1, embed_dim=8, heads=2, mlp_ratio=2.0, token_dim=4)
    params = md.init_params(enc, None, seed=5, dtype=np.float64)
    tokens = np.random.default_rng(6).uniform(size=(2, 4))
    vis_idx = np.array([0, 1])

    got = md.encode(tokens, tk.Mask(np.zeros(2, dtype=bool)), grid, enc, params).data

    p = {k: v.data for k, v in params.items()}

    def ln(x, g, b, eps=1e-6):
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps) * g + b

    def gelu(x):
        return 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x ** 3)))

    x = tokens @ p["patch_proj.w"] + p["patch_proj.b"]
    x = x + tk.sincos_posenc(grid, 8)[vis_idx]

    h = ln(x, p["enc.block0.ln1.g"], p["enc.block0.ln1.b"])
    q = (h @ p["enc.block0.attn.wq"] + p["enc.block0.attn.bq"]).reshape(2, 2, 4).transpose(1, 0, 2)
    k = (h @ p["enc.block0.attn.wk"]).reshape(2, 2, 4).transpose(1, 0, 2)
    v = (h @ p["enc.block0.attn.wv"] + p["enc.block0.attn.bv"]).reshape(2, 2, 4).transpose(1, 0, 2)
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(4.0)
    e = np.exp(scores - scores.max(-1, keepdims=True))
    probs = e / e.sum(-1, keepdims=True)
    mixed = (probs @ v).transpose(1, 0, 2).reshape(2, 8)
    x = x + mixed @ p["enc.block0.attn.wo"] + p["enc.block0.attn.bo"]

    h = ln(x, p["enc.block0.ln2.g"], p["enc.block0.ln2.b"])
    h = gelu(h @ p["enc.block0.mlp.w1"] + p["enc.block0.mlp.b1"])
    x = x + h @ p["enc.block0.mlp.w2"] + p["enc.block0.mlp.b2"]

    want = ln(x, p["enc.ln_out.g"], p["enc.ln_out.b"])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_attention_rows_sum_to_one_every_layer(monkeypatch):
    clip, grid, enc, dec, params, mask = _tiny_setup(ratio=0.5)
    tokens, _ = tk.patchify(clip, 2, 4)
    sink = []
    real_kernel = nm._softmax_rows

    def softmax_rows(x):
        out = real_kernel(x)
        sink.append(out.copy())
        return out

    monkeypatch.setattr(nm, "_softmax_rows", softmax_rows)
    md.encode(tokens, mask, grid, enc, params)
    assert len(sink) == enc.depth
    for probs in sink:
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)


# ---- decode ----


def test_decode_output_shapes():
    clip, grid, enc, dec, params, mask = _tiny_setup()
    pred_space, pred_time = md.forward_pretrain(clip, mask, grid, enc, dec, params)
    assert pred_space.shape == (grid.num_tokens, grid.token_dim)
    assert pred_time.shape == (grid.num_tokens, grid.motion_dim)


def test_full_scale_space_head_dim():
    grid = tk.TokenGrid(8, 14, 14, 2, 16, 3)
    dec = md.DecoderConfig(depth=1, embed_dim=16, heads=2, mlp_ratio=1.0,
                           space_dim=grid.token_dim, time_dim=grid.motion_dim)
    assert dec.out_dim("space") == 1536


def test_decode_scatter_routing_with_stub():
    """A decoder whose one block is the identity (zero attention and MLP
    output projections), with identity embed and head projections, exposes
    the scatter: each masked slot shows the mask token, each visible slot its
    own latent, each plus the position code of its slot."""
    grid = tk.TokenGrid(2, 2, 2, 2, 4, 1)
    dec = md.DecoderConfig(depth=1, embed_dim=8, heads=2, mlp_ratio=1.0,
                           space_dim=8, time_dim=4)
    rng = np.random.default_rng(7)
    params = {
        "dec.space.embed.w": Tensor(np.eye(8, dtype=np.float32)),
        "dec.space.embed.b": Tensor(np.zeros(8, dtype=np.float32)),
        "dec.space.mask_token": Tensor(rng.normal(size=8).astype(np.float32)),
        "dec.space.ln_out.g": Tensor(np.ones(8, dtype=np.float32)),
        "dec.space.ln_out.b": Tensor(np.zeros(8, dtype=np.float32)),
        "dec.space.out.w": Tensor(np.eye(8, dtype=np.float32)),
        "dec.space.out.b": Tensor(np.zeros(8, dtype=np.float32)),
    }
    md._block_params(params, "dec.space.block0", 8, 8, np.random.default_rng(1),
                     np.float32)
    for name in ("attn.wo", "attn.bo", "mlp.w2", "mlp.b2"):
        params[f"dec.space.block0.{name}"].data[...] = 0.0
    mask = tk.sample_mask(grid, 0.5, "random", seed=8)
    latents = Tensor(rng.normal(size=(4, 8)).astype(np.float32))
    out = md.decode(latents, mask, grid, dec, params)["space"].data
    pos = tk.sincos_posenc(grid, 8)

    def ln(x):
        mu = x.mean(-1, keepdims=True)
        return (x - mu) / np.sqrt(((x - mu) ** 2).mean(-1, keepdims=True) + 1e-6)

    tok = params["dec.space.mask_token"].data
    for row in mask.masked_indices:
        np.testing.assert_allclose(out[row], ln(tok + pos[row]), atol=1e-5)
    for i, row in enumerate(mask.visible_indices):
        np.testing.assert_allclose(out[row], ln(latents.data[i] + pos[row]), atol=1e-5)

    # perturbing latent row 0 may move only its own grid position
    latents2 = Tensor(latents.data.copy())
    latents2.data[0] += 1.0
    out2 = md.decode(latents2, mask, grid, dec, params)["space"].data
    changed = np.flatnonzero(np.abs(out2 - out).sum(axis=1))
    assert changed.tolist() == [int(mask.visible_indices[0])]


def test_parallel_heads_independent():
    clip, grid, enc, dec, params, mask = _tiny_setup()
    space_a, _ = md.forward_pretrain(clip, mask, grid, enc, dec, params)
    for name, p in params.items():
        if name.startswith("dec.time."):
            p.data += 0.5
    space_b, _ = md.forward_pretrain(clip, mask, grid, enc, dec, params)
    assert (space_a.data == space_b.data).all()


def test_shared_stack_couples_heads():
    clip, grid, enc, dec, params, mask = _tiny_setup(arch="shared")
    assert "dec.shared.mask_token" in params
    _, time_a = md.forward_pretrain(clip, mask, grid, enc, dec, params)
    params["dec.shared.embed.w"].data += 0.5
    _, time_b = md.forward_pretrain(clip, mask, grid, enc, dec, params)
    assert (time_a.data != time_b.data).any()


@pytest.mark.parametrize("arch,stacks", [
    ("parallel", ["enc", "dec.space", "dec.time"]),
    ("shared", ["enc", "dec.shared"]),
])
def test_each_decoder_stack_runs_once(monkeypatch, arch, stacks):
    clip, grid, enc, dec, params, mask = _tiny_setup(arch=arch)
    ran = []
    real_run_stack = md._run_stack

    def run_stack(x, params, prefix, *args):
        ran.append(prefix)
        return real_run_stack(x, params, prefix, *args)

    monkeypatch.setattr(md, "_run_stack", run_stack)
    md.forward_pretrain(clip, mask, grid, enc, dec, params)
    assert ran == stacks


def test_forward_pretrain_frame_kind_omits_time():
    clip, grid, enc, dec, params, mask = _tiny_setup(target_kind="frame")
    pred_space, pred_time = md.forward_pretrain(clip, mask, grid, enc, dec, params)
    assert pred_time is None
    assert pred_space is not None


def test_forward_pretrain_deterministic():
    clip, grid, enc, dec, params, mask = _tiny_setup()
    a = md.forward_pretrain(clip, mask, grid, enc, dec, params)
    b = md.forward_pretrain(clip, mask, grid, enc, dec, params)
    assert (a[0].data == b[0].data).all()
    assert (a[1].data == b[1].data).all()


def test_heads_blind_to_masked_pixels():
    clip, grid, enc, dec, params, mask = _tiny_setup(ratio=0.75)
    tokens, _ = tk.patchify(clip, 2, 4)
    vandalized = tokens.copy()
    vandalized[mask.masked_indices] = 0.777
    clip2 = tk.unpatchify(vandalized, grid)
    a = md.forward_pretrain(clip, mask, grid, enc, dec, params)
    b = md.forward_pretrain(clip2, mask, grid, enc, dec, params)
    assert (a[0].data == b[0].data).all()
    assert (a[1].data == b[1].data).all()


# ---- gradients through the full model (trimmed; the full sweep is in the
# acceptance suite) ----


def test_end_to_end_gradient_spot_check():
    grid = tk.TokenGrid(2, 1, 1, 1, 2, 1)
    enc = md.EncoderConfig(depth=1, embed_dim=8, heads=2, mlp_ratio=1.0, token_dim=4)
    clip = np.random.default_rng(12).uniform(size=(2, 2, 2, 1))
    mask = tk.sample_mask(grid, 0.5, "random", seed=13)
    for arch, stack in (("parallel", "space"), ("shared", "shared")):
        dec = md.DecoderConfig(depth=1, embed_dim=8, heads=2, mlp_ratio=1.0,
                               space_dim=4, time_dim=4, arch=arch)
        params = md.init_params(enc, dec, seed=11, dtype=np.float64)
        probe = ["patch_proj.w", "enc.block0.attn.wq", "enc.block0.mlp.w1",
                 f"dec.{stack}.mask_token", f"dec.{stack}.block0.mlp.w1",
                 "dec.time.out.w", "enc.ln_out.g"]

        def f(_):
            ps, pt = md.forward_pretrain(clip, mask, grid, enc, dec, params)
            return nm.add(nm.sum_all(nm.mul(ps, ps)), nm.sum_all(nm.mul(pt, pt)))

        err = nm.finite_diff_check(f, [params[k] for k in probe])
        assert err < 1e-4, f"{arch}: max relative gradient error {err:.3e}"


# ---- classify ----


def test_classify_logit_shape():
    clip, grid, enc, dec, params, mask = _tiny_setup()
    params.update(md.init_params(enc, None, seed=3, num_classes=4))
    clip_params = {k: params[k] for k in params}
    logits = md.classify(clip, grid, enc, clip_params)
    assert logits.shape == (1, 4)


def test_classify_permutation_invariant_without_posenc(monkeypatch):
    clip = np.random.default_rng(21).uniform(size=(8, 16, 16, 1)).astype(np.float32)
    tokens, grid = tk.patchify(clip, 2, 4)
    enc, _ = md.preset_configs("tiny", grid)
    params = md.init_params(enc, None, seed=22, num_classes=4, dtype=np.float64)

    swapped = tokens.copy()
    swapped[[3, 40]] = swapped[[40, 3]]
    clip2 = tk.unpatchify(swapped, grid)

    # position codes are what tells the two clips apart
    a = md.classify(clip, grid, enc, params).data
    b = md.classify(clip2, grid, enc, params).data
    assert not np.allclose(a, b, atol=1e-10)

    monkeypatch.setattr(md, "_posenc",
                        lambda g, dim, dtype: np.zeros((g.num_tokens, dim), dtype))
    a = md.classify(clip, grid, enc, params).data
    b = md.classify(clip2, grid, enc, params).data
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_untrained_classifier_sits_at_chance():
    """Balanced 4-class clips through a random model: accuracy ~ 25%."""
    T, H, W = 8, 16, 16
    grid = tk.TokenGrid(4, 4, 4, 2, 4, 1)
    enc, _ = md.preset_configs("tiny", grid)
    params = md.init_params(enc, None, seed=30, num_classes=4)
    hits = 0
    n = 1000
    for i in range(n):
        label = vd.DIRECTIONS[i % 4]
        rng = np.random.default_rng([77, i])
        speed = int(rng.integers(1, 4))
        sx, sy = {"right": (1, 0), "left": (-1, 0), "up": (0, -1), "down": (0, 1)}[label]
        spec = vd.SyntheticSpec(object_size=int(rng.integers(4, 9)),
                                velocity=(sx * speed, sy * speed),
                                background_level=0.1, object_level=0.9, label=label)
        clip, _ = vd.generate_moving_square(spec, T, H, W, seed=int(rng.integers(2 ** 31)))
        logits = md.classify(clip, grid, enc, params).data[0]
        hits += int(np.argmax(logits) == i % 4)
    assert abs(hits / n - 0.25) < 0.04


# ---- mlp ----


def test_mlp_forward_and_backward_peak_memory():
    """A desk encoder block's MLP over a (4, 256) batch keeps LayerNorm's
    xhat and not its output, and does not keep its (rows, hidden)
    pre-activation h, which outgrows SCORE_BUDGET: the backward rebuilds the
    LayerNorm rows and recomputes h and GELU from them. So forward plus
    backward peak under 3.5 times h: h, one more (rows, hidden) array, and
    the (rows, 192) arrays and weight gradients beside them. Separate
    layer_norm and mlp records, keeping the LayerNorm output and h, peaked
    at 3.63 times."""
    r = np.random.default_rng(24)
    b, n, dim, hid = 4, 256, 192, 768
    assert b * n * hid > nm.SCORE_BUDGET
    shapes = [(dim,), (dim,), (dim, hid), (hid,), (hid, dim), (dim,)]
    params = [Tensor((0.05 * r.normal(size=s)).astype(np.float32)) for s in shapes]
    x, g = (r.normal(size=(b, n, dim)).astype(np.float32) for _ in range(2))
    h_bytes = b * n * hid * 4
    tape = nm.Tape()
    xt = Tensor(x)
    for t in (xt, *params):
        tape.watch(t)  # the gradient buffers are the leaves', not the record's

    tracemalloc.start()
    try:
        out = nm.mlp(xt, *params)
        nm.backward(nm.sum_all(nm.mul(out, Tensor(g))), tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * h_bytes, f"peak {peak / h_bytes:.2f} x h"


# ---- initialization ----


def _trunc_normal_full_recheck(rng, shape, std):
    """Truncated normal that rechecks the whole array after each redraw."""
    vals = rng.normal(0.0, std, size=shape)
    for _ in range(100):
        bad = np.abs(vals) > 2 * std
        if not bad.any():
            break
        vals[bad] = rng.normal(0.0, std, size=int(bad.sum()))
    return np.clip(vals, -2 * std, 2 * std)


@pytest.mark.parametrize("shape", [(192, 768), (96,), (7, 3), (2, 3, 40)])
@pytest.mark.parametrize("std", [0.02, 0.1, 1.0])
@pytest.mark.parametrize("seed", [0, 7])
def test_trunc_normal_matches_a_full_recheck(shape, std, seed):
    """Rechecking only the redrawn values draws the same counts in the same
    order as rechecking everything, so the values and the generator's state
    afterwards are the same."""
    r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
    got = md._trunc_normal(r1, shape, std)
    want = _trunc_normal_full_recheck(r2, shape, std)
    assert got.shape == shape and got.tobytes() == want.tobytes()
    assert r1.random() == r2.random()


# ---- sizing ----


def test_decoder_lighter_than_encoder_at_full_shape():
    grid = tk.TokenGrid(8, 14, 14, 2, 16, 3)
    for preset in ("tiny", "desk", "base"):
        enc, dec = md.preset_configs(preset, grid)
        params = md.init_params(enc, dec, seed=1)
        count = lambda prefix: sum(p.size for k, p in params.items()
                                   if k.startswith(prefix))
        enc_n = count("enc") + count("patch_proj")
        dec_n = count("dec")
        assert dec_n < enc_n, f"{preset}: decoder {dec_n} >= encoder {enc_n}"


def test_preset_rejects_unknown_name():
    grid = tk.TokenGrid(2, 2, 2, 2, 4, 1)
    with pytest.raises(ValueError):
        md.preset_configs("giant", grid)


def test_config_validation():
    with pytest.raises(ValueError):
        md.EncoderConfig(depth=0, embed_dim=8, heads=2, mlp_ratio=1.0, token_dim=4)
    with pytest.raises(ValueError):
        md.EncoderConfig(depth=1, embed_dim=9, heads=2, mlp_ratio=1.0, token_dim=4)
    with pytest.raises(ValueError, match="^depth"):
        md.DecoderConfig(depth=0, embed_dim=8, heads=2, mlp_ratio=1.0,
                         space_dim=4, time_dim=4)
    with pytest.raises(ValueError):
        md.DecoderConfig(depth=1, embed_dim=8, heads=2, mlp_ratio=1.0,
                         space_dim=4, time_dim=4, arch="cascade")


@pytest.mark.parametrize("ratio", [-1.0, float("nan"), float("inf")])
def test_config_rejects_mlp_ratio_below_zero_or_non_finite(ratio):
    """The message starts with the field, which the CLI maps to its key."""
    with pytest.raises(ValueError, match="^mlp_ratio "):
        md.EncoderConfig(depth=1, embed_dim=12, heads=2, mlp_ratio=ratio, token_dim=4)
    assert md.EncoderConfig(depth=1, embed_dim=12, heads=2, mlp_ratio=0.0,
                            token_dim=4).mlp_dim == 0
