import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from motionmae import videodata as vd
from motionmae.videodata import SyntheticSpec


def _spec(**kw):
    base = dict(object_size=4, velocity=(1, 0), background_level=0.1,
                object_level=0.9, label="right")
    base.update(kw)
    return SyntheticSpec(**base)


# ---- synthetic generator ----


def test_static_square_all_frames_identical():
    clip, _ = vd.generate_moving_square(
        _spec(velocity=(0, 0), label=None), T=6, H=16, W=16, seed=0
    )
    for t in range(1, 6):
        np.testing.assert_array_equal(clip[t], clip[0])


def test_unit_velocity_is_toroidal_column_shift():
    clip, label = vd.generate_moving_square(_spec(), T=4, H=12, W=12, seed=3)
    assert label == "right"
    for t in range(3):
        np.testing.assert_array_equal(clip[t + 1], np.roll(clip[t], 1, axis=1))


def test_downward_velocity_is_row_shift():
    clip, _ = vd.generate_moving_square(
        _spec(velocity=(0, 2), label="down"), T=3, H=10, W=10, seed=5
    )
    np.testing.assert_array_equal(clip[1], np.roll(clip[0], 2, axis=0))


def test_frame_difference_matches_per_pixel_oracle():
    """|f1 - f0| is nonzero exactly where the square entered or left."""
    spec = _spec(object_size=5, velocity=(2, 0))
    clip, _ = vd.generate_moving_square(spec, T=2, H=16, W=16, seed=7)
    diff = np.abs(clip[1] - clip[0])

    # oracle: recompute occupancy masks pixel by pixel
    rng = np.random.default_rng(7)
    x0 = int(rng.integers(0, 16))
    y0 = int(rng.integers(0, 16))
    occ0 = np.zeros((16, 16), dtype=bool)
    occ1 = np.zeros((16, 16), dtype=bool)
    for dy in range(5):
        for dxx in range(5):
            occ0[(y0 + dy) % 16, (x0 + dxx) % 16] = True
            occ1[(y0 + dy) % 16, (x0 + 2 + dxx) % 16] = True
    changed = occ0 ^ occ1
    level = abs(spec.object_level - spec.background_level)
    np.testing.assert_allclose(diff[..., 0], changed * level, atol=1e-7)


def test_square_too_large_rejected():
    with pytest.raises(ValueError):
        vd.generate_moving_square(_spec(object_size=20), T=2, H=16, W=16, seed=0)


def test_label_velocity_consistency_enforced():
    with pytest.raises(ValueError):
        _spec(velocity=(-1, 0), label="right")
    with pytest.raises(ValueError):
        _spec(velocity=(0, 1), label="up")


def test_values_stay_in_unit_interval():
    clip, _ = vd.generate_moving_square(_spec(), T=4, H=8, W=8, seed=1)
    assert clip.min() >= 0.0 and clip.max() <= 1.0
    assert clip.dtype == np.float32


# ---- augmentations ----


def test_crop_identity_when_full_scale():
    clip = np.random.default_rng(0).uniform(size=(3, 8, 8, 1)).astype(np.float32)
    out = vd.random_resized_crop(clip, (1.0, 1.0), 8, 8, seed=1)
    np.testing.assert_array_equal(out, clip)


def test_crop_same_seed_bit_identical():
    clip = np.random.default_rng(1).uniform(size=(4, 20, 20, 3)).astype(np.float32)
    a = vd.random_resized_crop(clip, (0.5, 1.0), 12, 12, seed=42)
    b = vd.random_resized_crop(clip, (0.5, 1.0), 12, 12, seed=42)
    assert (a == b).all()


def test_crop_window_shared_across_frames():
    # frame t = base + t*delta; a per-frame-identical crop keeps that structure
    base = np.random.default_rng(2).uniform(0.0, 0.5, size=(1, 16, 16, 1))
    clip = np.concatenate([base + 0.1 * t for t in range(4)]).astype(np.float32)
    out = vd.random_resized_crop(clip, (0.5, 1.0), 10, 10, seed=9)
    for t in range(1, 4):
        np.testing.assert_allclose(out[t] - out[0], 0.1 * t, atol=1e-5)


def test_crop_area_ratio_statistics():
    """10^4 draws of the crop dims all land in the configured area range."""
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        ch, cw = vd._draw_crop_dims(32, 32, 0.5, 1.0, rng)
        assert 0.5 <= ch * cw / 1024 <= 1.0


def test_crop_rejects_bad_scale_range():
    clip = np.zeros((2, 8, 8, 1), dtype=np.float32)
    with pytest.raises(ValueError):
        vd.random_resized_crop(clip, (0.0, 1.0), 8, 8, seed=0)
    with pytest.raises(ValueError):
        vd.random_resized_crop(clip, (0.8, 0.5), 8, 8, seed=0)


def test_bilinear_identity_dims_bit_exact():
    clip = np.random.default_rng(3).uniform(size=(2, 9, 7, 3)).astype(np.float32)
    np.testing.assert_array_equal(vd.bilinear_resize(clip, 9, 7), clip)


def test_hflip_involution_and_columns():
    clip = np.random.default_rng(4).uniform(size=(2, 5, 6, 1)).astype(np.float32)
    flipped = vd.hflip(clip)
    np.testing.assert_array_equal(vd.hflip(flipped), clip)
    np.testing.assert_array_equal(flipped[:, :, 0], clip[:, :, 5])

    symmetric = clip + vd.hflip(clip)
    np.testing.assert_array_equal(vd.hflip(symmetric), symmetric)


# ---- raw clip files ----


def test_raw_clip_roundtrip_bit_exact(tmp_path):
    clip = np.random.default_rng(5).uniform(size=(4, 6, 5, 3)).astype(np.float32)
    p = tmp_path / "x.mmae"
    vd.save_raw_clip(clip, p)
    assert p.stat().st_size == 4 + 1 + 16 + 4 * clip.size
    loaded = vd.load_raw_clip(p)
    assert loaded.dtype == np.float32
    np.testing.assert_array_equal(loaded, clip)


def test_raw_clip_bad_magic(tmp_path):
    p = tmp_path / "x.mmae"
    p.write_bytes(b"NOPE" + bytes(30))
    with pytest.raises(vd.BadMagicError):
        vd.load_raw_clip(p)


def test_raw_clip_truncated(tmp_path):
    clip = np.zeros((2, 3, 3, 1), dtype=np.float32)
    p = tmp_path / "x.mmae"
    vd.save_raw_clip(clip, p)
    blob = p.read_bytes()
    p.write_bytes(blob[:-5])
    with pytest.raises(vd.TruncatedFileError):
        vd.load_raw_clip(p)


def test_raw_clip_trailing_garbage(tmp_path):
    clip = np.zeros((2, 3, 3, 1), dtype=np.float32)
    p = tmp_path / "x.mmae"
    vd.save_raw_clip(clip, p)
    p.write_bytes(p.read_bytes() + b"xx")
    with pytest.raises(vd.TruncatedFileError):
        vd.load_raw_clip(p)


def test_raw_clip_version_mismatch(tmp_path):
    clip = np.zeros((1, 2, 2, 1), dtype=np.float32)
    p = tmp_path / "x.mmae"
    vd.save_raw_clip(clip, p)
    blob = bytearray(p.read_bytes())
    blob[4] = 99
    p.write_bytes(bytes(blob))
    with pytest.raises(vd.VersionMismatchError):
        vd.load_raw_clip(p)


def test_raw_clip_dims_numpy_cannot_shape(tmp_path):
    """T = 0 makes the promised payload empty, so the length check passes,
    but numpy cannot shape the other dims: a ClipFileError, not numpy's."""
    p = tmp_path / "x.mmae"
    p.write_bytes(vd.MAGIC + struct.pack("<B4I", vd.FORMAT_VERSION, 0,
                                         2 ** 32 - 1, 2 ** 32 - 1, 2 ** 32 - 1))
    with pytest.raises(vd.ClipFileError, match="numpy cannot shape"):
        vd.load_raw_clip(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_raw_clip_non_finite_payload_rejected(tmp_path, bad):
    clip = np.zeros((2, 3, 3, 1), dtype=np.float32)
    clip[1, 2, 0, 0] = bad
    p = tmp_path / "x.mmae"
    vd.save_raw_clip(clip, p)
    with pytest.raises(vd.ClipFileError, match="x.mmae.*non-finite"):
        vd.load_raw_clip(p)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_raw_clip_damage_loads_or_raises_clip_errors(tmp_path, data):
    """Truncations and byte flips of a saved clip either load a (T, H, W, C)
    array or raise a ClipFileError."""
    p = tmp_path / "x.mmae"
    vd.save_raw_clip(np.zeros((2, 3, 2, 1), np.float32), p)
    blob = bytearray(p.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="cut")]
    else:
        flips = data.draw(st.lists(st.tuples(
            st.integers(0, len(blob) - 1), st.integers(1, 255)),
            min_size=1, max_size=4), label="flips")
        for at, xor in flips:
            blob[at] ^= xor
    p.write_bytes(bytes(blob))
    try:
        assert vd.load_raw_clip(p).ndim == 4
    except vd.ClipFileError:
        pass


# ---- dataset directories ----


def test_generate_dataset_layout_and_labels(tmp_path):
    entries = vd.generate_dataset(tmp_path, num_clips=8, T=4, H=12, W=12, seed=11)
    assert [e[0] for e in entries] == [f"{i:05d}" for i in range(8)]
    assert [e[1] for e in entries] == list(vd.DIRECTIONS) * 2

    assert vd.read_labels(tmp_path) == entries
    clip = vd.load_dataset_clip(tmp_path, "00003")
    assert clip.shape == (4, 12, 12, 1)
    assert clip.min() >= 0.0 and clip.max() <= 1.0
    for i, (clip_id, label) in enumerate(entries):  # the files hold the recipe's clips
        clip, want = vd.dataset_clip(i, T=4, H=12, W=12, seed=11)
        assert label == want
        assert vd.load_dataset_clip(tmp_path, clip_id).tobytes() == clip.tobytes()


@pytest.mark.parametrize("H,W", [(3, 8), (8, 3), (1, 1)])
def test_dataset_clip_rejects_frames_under_four_pixels(H, W):
    with pytest.raises(ValueError, match="^frame"):
        vd.dataset_clip(0, T=2, H=H, W=W, seed=0)
    clip, _ = vd.dataset_clip(0, T=2, H=max(H, 4), W=max(W, 4), seed=0)
    assert clip.shape == (2, max(H, 4), max(W, 4), 1)


def test_generate_dataset_deterministic(tmp_path):
    vd.generate_dataset(tmp_path / "a", num_clips=4, T=4, H=8, W=8, seed=7)
    vd.generate_dataset(tmp_path / "b", num_clips=4, T=4, H=8, W=8, seed=7)
    for i in range(4):
        a = vd.load_dataset_clip(tmp_path / "a", f"{i:05d}")
        b = vd.load_dataset_clip(tmp_path / "b", f"{i:05d}")
        assert (a == b).all()


@pytest.mark.parametrize("line", ["00001 left", "00001\tleft\textra"])
def test_read_labels_damaged_line_names_file_and_line(tmp_path, line):
    (tmp_path / "labels.tsv").write_text(f"00000\tright\n\n{line}\n")
    with pytest.raises(vd.ClipFileError, match=r"labels\.tsv:3: "):
        vd.read_labels(tmp_path)
