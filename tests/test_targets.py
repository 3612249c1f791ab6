import numpy as np
import pytest

from motionmae import targets as tg
from motionmae import tokenizer as tk
from motionmae import videodata as vd


def _grid_and_clip(seed=0, T=8, H=16, W=16, C=1, ct=2, cp=4):
    clip = np.random.default_rng(seed).uniform(size=(T, H, W, C)).astype(np.float32)
    _, grid = tk.patchify(clip, ct, cp)
    return clip, grid


def _full_mask(grid):
    return tk.Mask(np.ones(grid.num_tokens, dtype=bool))


# ---- space targets ----


def test_space_target_raw_equals_patch_pixels():
    clip, grid = _grid_and_clip(1)
    mask = tk.sample_mask(grid, 0.5, "random", seed=2)
    rows = tg.make_space_target(clip, mask, grid, normalize_per_patch=False)
    tokens, _ = tk.patchify(clip, grid.ct, grid.cp)
    np.testing.assert_array_equal(rows, tokens[mask.masked_indices])


def test_space_target_naive_gather_oracle():
    """Rows match an independent per-pixel gather over cube coordinates."""
    clip, grid = _grid_and_clip(3, T=4, H=8, W=8, C=2, ct=2, cp=4)
    mask = tk.sample_mask(grid, 0.5, "random", seed=4)
    rows = tg.make_space_target(clip, mask, grid)
    for r, tok in enumerate(mask.masked_indices):
        tau, rem = divmod(int(tok), grid.gh * grid.gw)
        h, w = divmod(rem, grid.gw)
        vals = []
        for f in range(grid.ct):
            for i in range(grid.cp):
                for j in range(grid.cp):
                    for c in range(grid.channels):
                        vals.append(clip[grid.ct * tau + f,
                                         grid.cp * h + i,
                                         grid.cp * w + j, c])
        np.testing.assert_array_equal(rows[r], np.array(vals, dtype=np.float32))


def test_space_target_constant_clip_normalizes_to_zero():
    clip = np.full((4, 8, 8, 1), 0.6, dtype=np.float32)
    _, grid = tk.patchify(clip, 2, 4)
    mask = tk.sample_mask(grid, 0.5, "random", seed=5)
    rows = tg.make_space_target(clip, mask, grid, normalize_per_patch=True)
    np.testing.assert_array_equal(rows, 0.0)
    assert rows.shape == (mask.num_masked, grid.token_dim)


def test_space_target_normalized_rows_standardized():
    clip, grid = _grid_and_clip(6)
    mask = tk.sample_mask(grid, 0.75, "random", seed=7)
    rows = tg.make_space_target(clip, mask, grid, normalize_per_patch=True)
    np.testing.assert_allclose(rows.mean(axis=1), 0.0, atol=1e-5)
    np.testing.assert_allclose(rows.var(axis=1), 1.0, atol=1e-4)


# ---- motion targets ----


def test_motion_target_static_clip_is_zero():
    clip = np.full((8, 8, 8, 1), 0.4, dtype=np.float32)
    _, grid = tk.patchify(clip, 2, 4)
    mask = tk.sample_mask(grid, 0.5, "random", seed=8)
    for g in (1, 2, 4):
        assert not tg.make_motion_target(clip, mask, grid, g).any()


def test_motion_target_two_level_analytic():
    clip = np.empty((2, 4, 4, 1), dtype=np.float32)
    clip[0] = 0.2
    clip[1] = 0.5
    _, grid = tk.patchify(clip, 2, 4)
    out = tg.make_motion_target(clip, _full_mask(grid), grid, gap=1)
    np.testing.assert_allclose(out, np.float32(0.5) - np.float32(0.2))


def test_motion_target_moving_square_pixel_oracle():
    """Brute-force |f_{t+g} - f_t| gather must match bit-for-bit."""
    spec = vd.SyntheticSpec(object_size=5, velocity=(2, 1),
                            background_level=0.1, object_level=0.9)
    clip, _ = vd.generate_moving_square(spec, T=8, H=16, W=16, seed=13)
    _, grid = tk.patchify(clip, 2, 4)
    mask = tk.sample_mask(grid, 0.75, "random", seed=14)
    for g in (1, 2, 4):
        out = tg.make_motion_target(clip, mask, grid, g)
        for r, tok in enumerate(mask.masked_indices):
            tau, rem = divmod(int(tok), grid.gh * grid.gw)
            h, w = divmod(rem, grid.gw)
            anchor = grid.ct * tau
            other = min(anchor + g, clip.shape[0] - 1)
            patch = np.abs(clip[other, 4 * h : 4 * h + 4, 4 * w : 4 * w + 4]
                           - clip[anchor, 4 * h : 4 * h + 4, 4 * w : 4 * w + 4])
            np.testing.assert_array_equal(out[r], patch.reshape(-1))


def test_motion_target_adjacent_frame_reading_for_unit_gap():
    # ct=2, g=1: slot tau target is |frame_{2tau+1} - frame_{2tau}| patchified
    clip, grid = _grid_and_clip(15)
    out = tg.make_motion_target(clip, _full_mask(grid), grid, gap=1)
    for tau in range(grid.gt):
        diff = np.abs(clip[2 * tau + 1] - clip[2 * tau])
        patches = (
            diff.reshape(grid.gh, grid.cp, grid.gw, grid.cp, grid.channels)
            .transpose(0, 2, 1, 3, 4)
            .reshape(grid.gh * grid.gw, -1)
        )
        start = tau * grid.gh * grid.gw
        np.testing.assert_array_equal(out[start : start + grid.gh * grid.gw], patches)


def test_motion_target_constant_shift_invariance():
    # dyadic pixel values in [0, 0.5) make the +0.25 shift exact in float32,
    # so the cancellation holds bitwise, not just approximately
    clip, grid = _grid_and_clip(16)
    clip = np.floor(clip * 2 ** 15).astype(np.float32) / np.float32(2 ** 16)
    mask = tk.sample_mask(grid, 0.5, "random", seed=17)
    a = tg.make_motion_target(clip, mask, grid, gap=2)
    b = tg.make_motion_target(clip + np.float32(0.25), mask, grid, gap=2)
    np.testing.assert_array_equal(a, b)


def test_motion_target_hflip_equivariance():
    spec = vd.SyntheticSpec(object_size=4, velocity=(1, 0),
                            background_level=0.0, object_level=1.0)
    clip, _ = vd.generate_moving_square(spec, T=4, H=8, W=8, seed=18)
    _, grid = tk.patchify(clip, 2, 4)
    full = _full_mask(grid)

    def as_maps(rows):
        return rows.reshape(grid.gt, grid.gh, grid.gw, grid.cp, grid.cp,
                            grid.channels)

    lhs = as_maps(tg.make_motion_target(vd.hflip(clip), full, grid, gap=1))
    rhs = as_maps(tg.make_motion_target(clip, full, grid, gap=1))[:, :, ::-1, :, ::-1]
    np.testing.assert_array_equal(lhs, rhs)


def test_motion_target_end_clamp_zero_rows():
    # ct=1 so the last temporal slot anchors at the final frame: clamped diff = 0
    clip, grid = _grid_and_clip(19, T=4, ct=1)
    out = tg.make_motion_target(clip, _full_mask(grid), grid, gap=2)
    last_slot = out.reshape(grid.gt, grid.gh * grid.gw, -1)[-1]
    np.testing.assert_array_equal(last_slot, 0.0)


def test_motion_target_values_bounded():
    clip, grid = _grid_and_clip(20)
    out = tg.make_motion_target(clip, _full_mask(grid), grid, gap=3)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_motion_target_gap_bounds():
    clip, grid = _grid_and_clip(21)
    mask = tk.sample_mask(grid, 0.5, "random", seed=22)
    with pytest.raises(ValueError):
        tg.make_motion_target(clip, mask, grid, gap=0)
    with pytest.raises(ValueError):
        tg.make_motion_target(clip, mask, grid, gap=8)


# ---- bundles ----


def test_bundle_frame_kind_has_no_time():
    clip, grid = _grid_and_clip(24)
    mask = tk.sample_mask(grid, 0.5, "random", seed=25)
    bundle = tg.make_targets(clip, mask, grid, tg.TargetConfig(kind="frame"))
    assert bundle.time is None
    assert bundle.space.shape == (mask.num_masked, grid.token_dim)


def test_bundle_both_kinds_row_counts():
    clip, grid = _grid_and_clip(26)
    mask = tk.sample_mask(grid, 0.75, "random", seed=27)
    bundle = tg.make_targets(clip, mask, grid, tg.TargetConfig(kind="both", gap=2))
    assert bundle.space.shape[0] == bundle.time.shape[0] == mask.num_masked
    assert bundle.time.shape[1] == grid.motion_dim


def test_bundle_motion_on_static_clip_zero():
    clip = np.full((4, 8, 8, 1), 0.3, dtype=np.float32)
    _, grid = tk.patchify(clip, 2, 4)
    mask = tk.sample_mask(grid, 0.5, "random", seed=28)
    bundle = tg.make_targets(clip, mask, grid, tg.TargetConfig(kind="motion"))
    assert bundle.space is None
    assert not bundle.time.any()


def test_bundle_invalid_kind_rejected():
    with pytest.raises(ValueError):
        tg.TargetConfig(kind="edges")


@pytest.mark.parametrize("gap", [1, 2, 4])
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("kind", tg.TARGET_KINDS)
def test_batched_targets_equal_per_clip_targets(kind, normalize, gap):
    """Targets of stacked clips under a batch Mask are the per-clip targets,
    stacked, bit for bit."""
    clips = [_grid_and_clip(10 + i)[0] for i in range(3)]
    _, grid = tk.patchify(clips[0], 2, 4)
    masks = [tk.sample_mask(grid, 0.75, "random", seed=20 + i) for i in range(3)]
    cfg = tg.TargetConfig(kind, gap, normalize)
    batch = tg.make_targets(np.stack(clips), tk.Mask(np.stack([m.bits for m in masks])),
                            grid, cfg)
    singles = [tg.make_targets(c, m, grid, cfg) for c, m in zip(clips, masks)]
    for head in ("space", "time"):
        got = getattr(batch, head)
        if getattr(singles[0], head) is None:
            assert got is None
            continue
        want = np.stack([getattr(b, head) for b in singles])
        assert got.dtype == want.dtype == np.float32
        np.testing.assert_array_equal(got, want)
