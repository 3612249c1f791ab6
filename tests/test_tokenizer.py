import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionmae import evalviz as ev
from motionmae import model as md
from motionmae import targets as tg
from motionmae import tokenizer as tk


def _clip(seed, shape):
    return np.random.default_rng(seed).uniform(size=shape).astype(np.float32)


# ---- patchify / unpatchify ----


def test_full_scale_token_arithmetic():
    clip = np.zeros((16, 224, 224, 3), dtype=np.float32)
    tokens, grid = tk.patchify(clip, ct=2, cp=16)
    assert (grid.gt, grid.gh, grid.gw) == (8, 14, 14)
    assert grid.num_tokens == 1568
    assert tokens.shape == (1568, 1536)


def test_small_grid_arithmetic():
    tokens, grid = tk.patchify(np.zeros((4, 8, 8, 1), dtype=np.float32), ct=2, cp=4)
    assert grid.num_tokens == 8
    assert tokens.shape == (8, 32)
    assert (grid.gt, grid.gh, grid.gw) == (2, 2, 2)


def test_roundtrip_bit_exact():
    clip = _clip(0, (4, 8, 12, 3))
    tokens, grid = tk.patchify(clip, ct=2, cp=4)
    np.testing.assert_array_equal(tk.unpatchify(tokens, grid), clip)


def test_flattening_order_frame_row_col_channel():
    # label each pixel with a unique value and check the first token directly
    T, H, W, C = 2, 4, 4, 2
    clip = np.arange(T * H * W * C, dtype=np.float32).reshape(T, H, W, C)
    tokens, grid = tk.patchify(clip, ct=2, cp=2)
    want = clip[0:2, 0:2, 0:2, :].reshape(-1)  # (frame, row, col, channel)
    np.testing.assert_array_equal(tokens[0], want)
    # token index (t*gh + h)*gw + w: token 1 is (t=0, h=0, w=1)
    np.testing.assert_array_equal(tokens[1], clip[0:2, 0:2, 2:4, :].reshape(-1))


def test_non_divisible_rejected():
    with pytest.raises(ValueError):
        tk.patchify(np.zeros((5, 8, 8, 1), dtype=np.float32), ct=2, cp=4)
    with pytest.raises(ValueError):
        tk.patchify(np.zeros((4, 9, 8, 1), dtype=np.float32), ct=2, cp=4)


_GRID = tk.TokenGrid(2, 2, 2, 2, 4, 1)  # clips (4, 8, 8, 1)


@pytest.mark.parametrize("shape", [(4, 8, 8, 1), (3, 4, 8, 8, 1)], ids=["clip", "batch"])
def test_check_clip_accepts_clips_of_the_grid(shape):
    tk.check_clip(np.zeros(shape), _GRID)
    assert tk.patchify(np.zeros(shape), _GRID.ct, _GRID.cp)[1] == _GRID


@pytest.mark.parametrize("shape", [(6, 8, 8, 1), (4, 8, 12, 1), (4, 8, 8, 3),
                                   (8, 8, 1), (4, 8, 9, 1)],
                         ids=["frames", "width", "channels", "rank", "not-divisible"])
def test_check_clip_rejects_clips_of_another_grid(shape):
    with pytest.raises(ValueError, match="does not tokenize to"):
        tk.check_clip(np.zeros(shape), _GRID)


@pytest.mark.parametrize("use", [
    lambda clip, mask: md._tokens(clip, _GRID),
    lambda clip, mask: tg.make_space_target(clip, mask, _GRID),
    lambda clip, mask: tg.make_motion_target(clip, mask, _GRID, 1),
    lambda clip, mask: ev.build_recon_grid(clip, mask, None, None, _GRID),
], ids=["model-tokens", "space-target", "motion-target", "recon-grid"])
def test_every_tokenizing_caller_rejects_a_clip_of_another_grid(use):
    """The model, both targets and the reconstruction grid check a clip
    against their grid through check_clip."""
    mask = tk.sample_mask(_GRID, 0.5, "random", seed=0)
    with pytest.raises(ValueError, match="does not tokenize to"):
        use(np.zeros((4, 8, 12, 1), np.float32), mask)


def test_unpatchify_degenerate_cases():
    grid = tk.TokenGrid(1, 1, 1, 2, 3, 1)
    token = np.arange(18, dtype=np.float32).reshape(1, 18)
    np.testing.assert_array_equal(tk.unpatchify(token, grid),
                                  token.reshape(2, 3, 3, 1))
    zeros = np.zeros((8, 32), dtype=np.float32)
    grid8 = tk.TokenGrid(2, 2, 2, 2, 4, 1)
    assert not tk.unpatchify(zeros, grid8).any()
    with pytest.raises(ValueError):
        tk.unpatchify(np.zeros((7, 32), dtype=np.float32), grid8)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_roundtrip_property(seed):
    r = np.random.default_rng(seed)
    ct, cp = int(r.integers(1, 4)), int(r.integers(1, 5))
    gt, gh, gw = (int(r.integers(1, 4)) for _ in range(3))
    c = int(r.integers(1, 4))
    clip = r.uniform(size=(gt * ct, gh * cp, gw * cp, c)).astype(np.float32)
    tokens, grid = tk.patchify(clip, ct, cp)
    np.testing.assert_array_equal(tk.unpatchify(tokens, grid), clip)


# ---- positional encoding ----


def test_posenc_origin_pattern():
    grid = tk.TokenGrid(2, 2, 2, 2, 4, 1)
    enc = tk.sincos_posenc(grid, 12)
    # token 0 sits at (0,0,0): every axis contributes sin(0)=0, cos(0)=1
    np.testing.assert_array_equal(enc[0], np.tile([0.0, 1.0], 6))


def test_posenc_injective_on_small_grid():
    grid = tk.TokenGrid(3, 3, 3, 1, 2, 1)
    enc = tk.sincos_posenc(grid, 18)
    assert len({row.tobytes() for row in enc}) == grid.num_tokens


def test_posenc_deterministic_and_padded():
    grid = tk.TokenGrid(2, 3, 4, 2, 2, 1)
    a = tk.sincos_posenc(grid, 16)
    b = tk.sincos_posenc(grid, 16)
    assert (a == b).all()
    assert a.shape == (24, 16)
    # 16 = 3 parts of 4 + 4 zero pad columns
    np.testing.assert_array_equal(a[:, 12:], 0.0)


def test_posenc_rejects_tiny_dim():
    with pytest.raises(ValueError):
        tk.sincos_posenc(tk.TokenGrid(1, 1, 1, 1, 1, 1), 4)


# ---- masking ----


def test_mask_counts_at_high_ratio():
    grid = tk.TokenGrid(8, 14, 14, 2, 16, 3)
    m = tk.sample_mask(grid, 0.9, "random", seed=0)
    assert m.num_masked == 1411
    assert len(m.visible_indices) == 157


def test_mask_ratio_zero_none_masked():
    grid = tk.TokenGrid(2, 2, 2, 2, 4, 1)
    m = tk.sample_mask(grid, 0.0, "random", seed=1)
    assert m.num_masked == 0


def test_mask_ratio_bounds():
    grid = tk.TokenGrid(2, 2, 2, 2, 4, 1)
    with pytest.raises(ValueError):
        tk.sample_mask(grid, 1.0, "random", seed=0)
    with pytest.raises(ValueError):
        tk.sample_mask(grid, -0.1, "random", seed=0)
    with pytest.raises(ValueError):
        tk.sample_mask(grid, 0.5, "diagonal", seed=0)


def test_tube_mask_constant_over_time():
    grid = tk.TokenGrid(4, 4, 4, 2, 4, 1)
    m = tk.sample_mask(grid, 0.75, "tube", seed=3)
    cube = m.bits.reshape(4, 16)
    for t in range(1, 4):
        np.testing.assert_array_equal(cube[t], cube[0])
    assert m.num_masked == 48  # floor(0.75 * 16) spatial cells over 4 slots


def test_time_only_masks_whole_slots():
    grid = tk.TokenGrid(4, 4, 4, 2, 4, 1)
    m = tk.sample_mask(grid, 0.75, "time_only", seed=4)
    cube = m.bits.reshape(4, 16)
    per_slot = cube.sum(axis=1)
    assert set(per_slot.tolist()) <= {0, 16}
    assert m.num_masked == 48
    assert (per_slot == 0).any()  # at least one slot stays visible


def test_time_only_keeps_a_visible_slot_at_high_ratio():
    grid = tk.TokenGrid(4, 2, 2, 1, 2, 1)
    m = tk.sample_mask(grid, 0.99, "time_only", seed=5)
    assert m.bits.reshape(4, 4).sum(axis=1).tolist().count(0) >= 1


def test_all_strategies_agree_on_floor_at_aligned_ratio():
    """On a 4x4x4 grid, r=0.75 divides evenly at every granularity."""
    grid = tk.TokenGrid(4, 4, 4, 2, 4, 1)
    want = int(0.75 * grid.num_tokens)
    for strategy in tk.MASK_STRATEGIES:
        m = tk.sample_mask(grid, 0.75, strategy, seed=9)
        assert m.num_masked == want


def test_mask_determinism_and_seed_sensitivity():
    grid = tk.TokenGrid(4, 4, 4, 2, 4, 1)  # 64 tokens
    a = tk.sample_mask(grid, 0.75, "random", seed=7)
    b = tk.sample_mask(grid, 0.75, "random", seed=7)
    c = tk.sample_mask(grid, 0.75, "random", seed=8)
    assert (a.bits == b.bits).all()
    assert (a.bits != c.bits).any()


@given(st.floats(0.0, 0.99), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_random_mask_floor_rule_property(ratio, seed):
    grid = tk.TokenGrid(3, 5, 4, 2, 2, 1)
    m = tk.sample_mask(grid, ratio, "random", seed)
    assert m.num_masked == int(ratio * grid.num_tokens)


# ---- cutting rows by a mask ----


def test_mask_cuts_partition_rows():
    grid = tk.TokenGrid(2, 2, 2, 2, 4, 1)
    tokens = _clip(10, (4, 8, 8, 1))
    toks, _ = tk.patchify(tokens, 2, 4)
    m = tk.sample_mask(grid, 0.5, "random", seed=11)
    vis_idx, mask_idx = m.visible_indices, m.masked_indices
    assert sorted(np.concatenate([vis_idx, mask_idx]).tolist()) == list(range(8))
    np.testing.assert_array_equal(m.visible(toks), toks[vis_idx])
    np.testing.assert_array_equal(m.hidden(toks), toks[mask_idx])
    assert list(vis_idx) == sorted(vis_idx)


def test_mask_cuts_explicit_enumeration():
    bits = np.zeros(8, dtype=bool)
    bits[[1, 3]] = True
    m = tk.Mask(bits)
    tokens = np.arange(16, dtype=np.float32).reshape(8, 2)
    assert m.visible_indices.tolist() == [0, 2, 4, 5, 6, 7]
    assert m.masked_indices.tolist() == [1, 3]
    np.testing.assert_array_equal(m.visible(tokens)[:, 0], [0, 4, 8, 10, 12, 14])
    np.testing.assert_array_equal(m.hidden(tokens)[:, 0], [2, 6])


def test_mask_cuts_ratio_zero_all_visible():
    grid = tk.TokenGrid(2, 2, 2, 2, 4, 1)
    m = tk.sample_mask(grid, 0.0, "random", seed=0)
    tokens = np.ones((8, 32), dtype=np.float32)
    assert m.visible(tokens).shape == (8, 32)
    assert m.hidden(tokens).shape == (0, 32)
    assert m.masked_indices.size == 0


def test_mask_cuts_reject_row_count_mismatch():
    m = tk.Mask(np.zeros(4, dtype=bool))
    for cut in (m.visible, m.hidden):
        with pytest.raises(ValueError, match="do not cover"):
            cut(np.ones((5, 2), dtype=np.float32))


@pytest.mark.parametrize("strategy", tk.MASK_STRATEGIES)
def test_mask_cuts_equal_index_gathers(strategy):
    """hidden/visible equal gathers at each row's own flatnonzero indices,
    for one clip and for a batch."""
    grid = tk.TokenGrid(4, 2, 3, 2, 4, 1)
    rows = np.random.default_rng(3).normal(size=(3, grid.num_tokens, 5))
    masks = [tk.sample_mask(grid, 0.6, strategy, seed=s) for s in (1, 2, 3)]
    batch = tk.Mask(np.stack([m.bits for m in masks]))
    for i, m in enumerate(masks):
        hid, vis = np.flatnonzero(m.bits), np.flatnonzero(~m.bits)
        np.testing.assert_array_equal(m.hidden(rows[i]), rows[i][hid])
        np.testing.assert_array_equal(m.visible(rows[i]), rows[i][vis])
        np.testing.assert_array_equal(batch.hidden(rows)[i], rows[i][hid])
        np.testing.assert_array_equal(batch.visible(rows)[i], rows[i][vis])


# ---- a batch of masks ----


def test_batch_mask_matches_its_stacked_masks():
    grid = tk.TokenGrid(4, 2, 3, 2, 4, 1)
    for strategy in tk.MASK_STRATEGIES:
        masks = [tk.sample_mask(grid, 0.5, strategy, seed=s) for s in (1, 2, 3)]
        batch = tk.Mask(np.stack([m.bits for m in masks]))
        m = masks[0].num_masked
        assert batch.num_masked == m > 0
        assert batch.bits.shape == (3, grid.num_tokens)
        assert batch.masked_indices.shape == (3, m)
        assert batch.visible_indices.shape == (3, grid.num_tokens - m)
        for i, one in enumerate(masks):
            np.testing.assert_array_equal(batch.bits[i], one.bits)
            np.testing.assert_array_equal(batch.visible_indices[i], one.visible_indices)
            np.testing.assert_array_equal(batch.masked_indices[i], one.masked_indices)
            np.testing.assert_array_equal(one.masked_indices, np.flatnonzero(one.bits))


def test_mask_arrays_read_only_and_built_once():
    grid = tk.TokenGrid(2, 2, 2, 2, 4, 1)
    one = tk.sample_mask(grid, 0.5, "random", seed=1)
    batch = tk.Mask(np.stack([one.bits, one.bits]))
    for m in (one, batch):
        assert "masked_indices" not in vars(m) and "visible_indices" not in vars(m)
        assert m.masked_indices is m.masked_indices
        assert m.visible_indices is m.visible_indices
        for arr in (m.bits, m.masked_indices, m.visible_indices):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[..., 0] = 0


def test_mask_keeps_its_own_bits():
    bits = np.zeros(4, dtype=bool)
    bits[1] = True
    m = tk.Mask(bits)
    bits[2] = True  # the caller's array stays writable and apart
    assert m.masked_indices.tolist() == [1]


def test_patchify_batch_matches_each_clip():
    clips = np.stack([_clip(30 + i, (4, 8, 8, 2)) for i in range(3)])
    tokens, grid = tk.patchify(clips, 2, 4)
    assert tokens.shape == (3, grid.num_tokens, grid.token_dim)
    for i in range(3):
        np.testing.assert_array_equal(tokens[i], tk.patchify(clips[i], 2, 4)[0])


def test_mask_cuts_batch_match_each_sample():
    grid = tk.TokenGrid(2, 2, 2, 2, 4, 1)
    tokens = np.stack([tk.patchify(_clip(20 + i, (4, 8, 8, 1)), 2, 4)[0]
                       for i in range(3)])
    masks = [tk.sample_mask(grid, 0.5, "tube", seed=s) for s in (1, 2, 3)]
    batch = tk.Mask(np.stack([m.bits for m in masks]))
    vis, hid = batch.visible(tokens), batch.hidden(tokens)
    assert vis.shape == hid.shape == (3, 4, grid.token_dim)
    for i, m in enumerate(masks):
        np.testing.assert_array_equal(vis[i], m.visible(tokens[i]))
        np.testing.assert_array_equal(hid[i], m.hidden(tokens[i]))


def test_batch_mask_rejects_unequal_hidden_counts():
    grid = tk.TokenGrid(2, 2, 2, 2, 4, 1)
    masks = [tk.sample_mask(grid, 0.5, "random", seed=1),
             tk.sample_mask(grid, 0.75, "random", seed=2)]
    with pytest.raises(ValueError, match="different token counts"):
        tk.Mask(np.stack([m.bits for m in masks]))
