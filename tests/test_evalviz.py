import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from motionmae import evalviz as ev
from motionmae import tokenizer as tk


def _setup(ratio=0.5, seed=0):
    clip = np.random.default_rng(seed).uniform(size=(8, 16, 16, 1)).astype(np.float32)
    _, grid = tk.patchify(clip, 2, 4)
    mask = tk.sample_mask(grid, ratio, "random", seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    pred_space = rng.uniform(-0.2, 1.2, size=(grid.num_tokens, grid.token_dim)).astype(np.float32)
    pred_time = rng.uniform(0, 0.4, size=(grid.num_tokens, grid.motion_dim)).astype(np.float32)
    return clip, grid, mask, pred_space, pred_time


# ---- PPM I/O ----


def test_ppm_roundtrip_exact(tmp_path):
    pixels = np.random.default_rng(1).uniform(size=(5, 7, 3))
    p = tmp_path / "x.ppm"
    ev.write_ppm(pixels, p)
    got = ev.read_ppm(p)
    want = np.clip(np.rint(pixels * 255), 0, 255).astype(np.uint8)
    np.testing.assert_array_equal(got, want)


def test_ppm_header_bytes(tmp_path):
    p = tmp_path / "x.ppm"
    ev.write_ppm(np.zeros((2, 3, 3)), p)
    blob = p.read_bytes()
    assert blob.startswith(b"P6\n3 2\n255\n")
    assert len(blob) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3


def test_ppm_reader_handles_comments(tmp_path):
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
    got = ev.read_ppm(p)
    np.testing.assert_array_equal(got, [[[1, 2, 3], [4, 5, 6]]])


def test_ppm_reader_rejects_other_formats(tmp_path):
    p = tmp_path / "x.ppm"
    p.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(ValueError):
        ev.read_ppm(p)


@pytest.mark.parametrize("blob", [
    b"P6 4",  # header ends inside the dims
    b"P6\n1_0 1\n255\n" + bytes(30),  # int() would read 10
    b"P6\n-3 -1\n255\n" + bytes(9),
    b"P6\n0 2\n255\n",
    b"P6\n2 2\n255\n" + bytes(11),  # one byte short
    b"P6\n2 2\n255",  # no byte ends the header
    b"P6\n2 2\n65535\n" + bytes(24),
    b"P6\n" + b"9" * 5000 + b" 1\n255\n",  # more digits than int() reads
])
def test_ppm_reader_malformed_header_or_payload_is_format_error(tmp_path, blob):
    p = tmp_path / "bad.ppm"
    p.write_bytes(blob)
    with pytest.raises(ev.PPMFormatError):
        ev.read_ppm(p)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_ppm_damaged_file_parses_or_raises_format_error(tmp_path, data):
    """A truncated or byte-flipped valid PPM reads as a uint8 (H, W, 3)
    array or raises PPMFormatError, nothing else."""
    p = tmp_path / "x.ppm"
    ev.write_ppm(np.random.default_rng(2).uniform(size=(3, 5, 3)), p)
    blob = bytearray(p.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")]
    else:
        flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                             st.integers(1, 255)),
                                   min_size=1, max_size=4), label="flips")
        for at, xor in flips:
            blob[at] ^= xor
    p.write_bytes(bytes(blob))
    try:
        img = ev.read_ppm(p)
    except ev.PPMFormatError:
        return
    assert img.dtype == np.uint8 and img.ndim == 3 and img.shape[2] == 3


# ---- reconstruction grid ----


def test_grid_layout_dimensions(tmp_path):
    clip, grid, mask, ps, pt = _setup()
    p = tmp_path / "grid.ppm"
    ev.render_reconstruction(clip, mask, ps, pt, grid, p)
    img = ev.read_ppm(p)
    assert img.shape == (4 * 16, 8 * 16, 3)


def test_zero_ratio_reconstruction_is_passthrough():
    clip, grid, _, ps, pt = _setup()
    mask = tk.sample_mask(grid, 0.0, "random", seed=9)
    buf = ev.build_recon_grid(clip, mask, ps, pt, grid)
    original_row = buf[:16]
    recon_row = buf[32:48]
    np.testing.assert_array_equal(recon_row, original_row)


def test_visible_regions_survive_one_quantization(tmp_path):
    """Unmasked pixels of the reconstruction row equal the original after a
    single 8-bit rounding."""
    clip, grid, mask, ps, pt = _setup(ratio=0.9)
    p = tmp_path / "grid.ppm"
    ev.render_reconstruction(clip, mask, ps, pt, grid, p)
    img = ev.read_ppm(p)

    marker = np.zeros((grid.num_tokens, grid.token_dim), dtype=np.float32)
    marker[mask.visible_indices] = 1.0
    vis_vol = tk.unpatchify(marker, grid)  # 1 where pixels were visible

    quant = np.clip(np.rint(np.repeat(clip, 3, axis=-1) * 255), 0, 255).astype(np.uint8)
    for t in range(8):
        frame = img[32:48, 16 * t : 16 * (t + 1)]
        sel = vis_vol[t, :, :, 0] == 1.0
        np.testing.assert_array_equal(frame[sel], quant[t][sel])


def test_masked_row_painted_gray():
    clip, grid, mask, ps, pt = _setup(ratio=0.75)
    buf = ev.build_recon_grid(clip, mask, ps, pt, grid)
    # every masked cube in the second row is the flat 0.5 fill
    masked_row = buf[16:32]
    for tok in mask.masked_indices:
        tau, rem = divmod(int(tok), grid.gh * grid.gw)
        h, w = divmod(rem, grid.gw)
        t0 = tau * grid.ct
        block = masked_row[4 * h : 4 * h + 4, 16 * t0 + 4 * w : 16 * t0 + 4 * w + 4]
        np.testing.assert_array_equal(block, 0.5)


def test_motion_row_zero_when_head_absent():
    clip, grid, mask, ps, _ = _setup()
    buf = ev.build_recon_grid(clip, mask, ps, None, grid)
    np.testing.assert_array_equal(buf[48:], 0.0)


# ---- metrics ----


def test_topk_perfect_and_full_k():
    logits = [np.eye(4)[i] for i in range(4)]
    assert ev.topk_accuracy(logits, [0, 1, 2, 3], 1) == 1.0
    assert ev.topk_accuracy(logits, [3, 0, 1, 2], 4) == 1.0


def test_topk_crafted_half():
    logits = [
        np.array([9.0, 0, 0, 0]),  # hit (label 0)
        np.array([9.0, 0, 0, 0]),  # miss (label 1)
        np.array([0, 0, 5.0, 0]),  # hit (label 2)
        np.array([0, 6.0, 0, 0]),  # miss (label 3)
    ]
    assert ev.topk_accuracy(logits, [0, 1, 2, 3], 1) == 0.5


def test_topk_tie_breaks_to_lower_index():
    logits = [np.array([1.0, 1.0, 0.0])]
    assert ev.topk_accuracy(logits, [0], 1) == 1.0
    assert ev.topk_accuracy(logits, [1], 1) == 0.0


def test_topk_validation():
    with pytest.raises(ValueError):
        ev.topk_accuracy([np.zeros(3)], [0, 1], 1)
    with pytest.raises(ValueError):
        ev.topk_accuracy([np.zeros(3)], [0], 4)


def test_metrics_report_shape():
    logits = [np.array([3.0, 1, 0, 0]), np.array([0, 2.0, 1, 0])]
    rep = ev.metrics_report(logits, [0, 2])
    assert rep == {"top1": 0.5, "top5": 1.0, "n": 2}
