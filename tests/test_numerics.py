import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionmae import numerics as nm
from motionmae.numerics import (
    NonFiniteError,
    OptimState,
    Tape,
    Tensor,
    adamw_step,
    backward,
    finite_diff_check,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---- matmul ----


def test_matmul_identity():
    a = Tensor(_rng(1).normal(size=(3, 3)))
    eye = Tensor(np.eye(3))
    np.testing.assert_array_equal(nm.matmul(a, eye).data, a.data)


def test_matmul_zeros():
    a = Tensor(_rng(2).normal(size=(2, 4)))
    z = Tensor(np.zeros((4, 3)))
    np.testing.assert_array_equal(nm.matmul(a, z).data, np.zeros((2, 3)))


def test_matmul_hand_example():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(
        nm.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]]
    )


def test_matmul_triple_loop_oracle():
    """Random rectangular product against an explicit three-loop computation."""
    r = _rng(3)
    a = r.normal(size=(4, 5))
    b = r.normal(size=(5, 3))
    want = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for l in range(5):
                want[i, j] += a[i, l] * b[l, j]
    np.testing.assert_allclose(nm.matmul(Tensor(a), Tensor(b)).data, want, rtol=1e-12)


def test_matmul_dim_mismatch():
    with pytest.raises(ValueError):
        nm.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_matmul_broadcast_weight_is_one_gemm_per_batch():
    r = _rng(5)
    a = r.normal(size=(3, 4, 5))
    w = r.normal(size=(5, 2))
    out = nm.matmul(Tensor(a), Tensor(w)).data
    for i in range(3):
        np.testing.assert_allclose(out[i], a[i] @ w, rtol=1e-12)
    # the weight gradient sums the per-sample gradients
    ta, tw = Tensor(a), Tensor(w)
    tape = Tape()
    tape.watch(ta)
    tape.watch(tw)
    backward(nm.sum_all(nm.matmul(ta, tw)), tape)
    want = sum(a[i].T @ np.ones((4, 2)) for i in range(3))
    np.testing.assert_allclose(tw.grad, want, rtol=1e-12)
    with pytest.raises(ValueError):
        nm.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 2))))


def test_gather_scatter_rows_per_sample_indices():
    """Rows that boolean bits gather per sample, as masked_penalty gathers
    them, land where other bits place them."""
    r = _rng(6)
    a = r.normal(size=(2, 5, 3))
    bits = np.zeros((2, 5), dtype=bool)
    bits[0, [0, 2, 4]] = bits[1, [1, 2, 3]] = True
    got = a[bits].reshape(2, 3, 3)
    place = np.zeros((2, 6), dtype=bool)
    place[0, [1, 3]] = place[1, [2, 5]] = True
    placed = nm.scatter_rows(Tensor(got[:, 1:]), place).data
    assert placed.shape == (2, 6, 3)
    np.testing.assert_array_equal(placed[0, [1, 3]], a[0, [2, 4]])
    np.testing.assert_array_equal(placed[1, [2, 5]], a[1, [2, 3]])
    assert not placed[~place].any()


@pytest.mark.parametrize("bits,match", [
    (np.array([0, 1, 1, 0]), "boolean"),  # integer positions, not bits
    (np.array([[1, 1, 0, 0], [1, 0, 0, 0]], dtype=bool), "different counts"),
])
def test_gather_scatter_rows_reject_bad_bits(bits, match):
    with pytest.raises(ValueError, match=match):
        nm.masked_penalty(Tensor(np.ones((2, 4, 3))), np.ones((2, 2, 3)), bits, "mse")
    with pytest.raises(ValueError, match=match):
        nm.scatter_rows(Tensor(np.ones((2, 1, 3))), bits)


def test_gather_scatter_rows_reject_values_that_do_not_fit():
    bits = np.array([[1, 0, 1], [0, 1, 1]], dtype=bool)
    target = np.ones((2, 2, 2))
    with pytest.raises(ValueError, match="do not fit"):  # 3 samples, 2 bit rows
        nm.masked_penalty(Tensor(np.ones((3, 3, 2))), target, bits, "mse")
    with pytest.raises(ValueError, match="do not fit"):  # 4 rows, 3 bits
        nm.masked_penalty(Tensor(np.ones((2, 4, 2))), target, bits, "mse")
    with pytest.raises(ValueError, match="does not pair"):  # 3 targets, 2 rows
        nm.masked_penalty(Tensor(np.ones((2, 3, 2))), np.ones((2, 3, 2)), bits, "mse")
    with pytest.raises(ValueError, match="loss kind"):
        nm.masked_penalty(Tensor(np.ones((2, 3, 2))), target, bits, "l2")
    with pytest.raises(ValueError, match="do not fit"):
        nm.scatter_rows(Tensor(np.ones((2, 3, 2))), bits)  # 3 rows, 2 selected
    with pytest.raises(ValueError, match="do not fit"):
        nm.scatter_rows(Tensor(np.ones((3, 2, 2))), bits)


# ---- linear ----


def _grads(build, arrays, g):
    """Gradients of sum(build(*arrays) * g) with respect to each array."""
    ts = [Tensor(a) for a in arrays]
    tape = Tape()
    for t in ts:
        tape.watch(t)
    backward(nm.sum_all(nm.mul(build(*ts), Tensor(g))), tape)
    return [t.grad for t in ts]


def test_linear_is_matmul_plus_bias_bit_for_bit():
    r = _rng(12)
    arrays = [r.normal(size=s).astype(np.float32)
              for s in [(3, 5, 4), (4, 6), (6,), (3, 5, 6)]]
    x, w, b, g = arrays
    fused = nm.linear(Tensor(x), Tensor(w), Tensor(b)).data
    apart = nm.add(nm.matmul(Tensor(x), Tensor(w)), Tensor(b)).data
    np.testing.assert_array_equal(fused, apart)
    got = _grads(nm.linear, arrays[:3], g)
    want = _grads(lambda x, w, b: nm.add(nm.matmul(x, w), b), arrays[:3], g)
    for got_g, want_g in zip(got, want):
        np.testing.assert_array_equal(got_g, want_g)


def test_linear_computes_no_gradient_for_a_constant_input():
    w, b = Tensor(np.ones((3, 2))), Tensor(np.zeros(2))
    tape = Tape()
    tape.watch(w)
    tape.watch(b)
    nm.linear(Tensor(np.ones((4, 3))), w, b)
    rule = tape._records[-1][2]
    gx, gw, gb = rule(np.ones((4, 2)))
    assert gx is None
    np.testing.assert_array_equal(gw, np.full((3, 2), 4.0))
    np.testing.assert_array_equal(gb, [4.0, 4.0])


def test_untracked_operands_get_no_gradient():
    """add and mul compute nothing for an operand no tape tracks."""
    x, c = Tensor(np.ones((2, 3))), Tensor(np.full(3, 2.0))
    tape = Tape()
    tape.watch(x)
    for op in (nm.add, nm.mul):
        op(x, c)
        gx, gc = tape._records[-1][2](np.ones((2, 3)))
        assert gc is None and gx.shape == (2, 3)


def test_linear_rejects_misfit_shapes():
    for shapes in [((2, 3), (4, 2), (2,)), ((2, 3), (3, 2), (3,)),
                   ((2, 3), (3,), (3,))]:
        with pytest.raises(ValueError, match="linear shape mismatch"):
            nm.linear(*[Tensor(np.ones(s)) for s in shapes])


def test_linear_inf_weight_raises():
    w = Tensor(np.ones((3, 2)))
    w.data[1, 0] = np.inf  # a parameter an update has blown up
    with pytest.raises(NonFiniteError):
        nm.linear(Tensor(np.ones((4, 3))), w, Tensor(np.zeros(2)))


# ---- attention ----


def _value_and_grads(op, arrs, g, track_x=True):
    """Value of op(*tensors of arrs) and the gradients backward() gives
    each input for the upstream gradient g, with the tape's record count;
    the first input untracked gets no gradient."""
    ts = [Tensor(a) for a in arrs]
    tape = Tape()
    for t in ts[not track_x:]:
        tape.watch(t)
    out = op(*ts)
    records = len(tape)
    backward(nm.sum_all(nm.mul(out, Tensor(g))), tape)
    return out.data, [t.grad for t in ts], records


def _attention_params(r, dim, dtype=np.float64):
    """Random arrays for attention's arguments after the rows: LayerNorm
    gain and shift, the q projection's weight and bias, the k weight, then
    the v and output projections' weights and biases."""
    w = lambda: r.normal(size=(dim, dim)) / math.sqrt(dim)
    bias = lambda: 0.1 * r.normal(size=dim)
    arrays = [1.0 + bias(), bias(), w(), bias(), w(), w(), bias(), w(), bias()]
    return [a.astype(dtype) for a in arrays]


def _attention_reference(x, g, b, wq, bq, wk, wv, bv, wo, bo, heads):
    """x plus the attention of its LayerNorm, per sample and head, with
    explicit loops."""
    xc = x - x.mean(axis=-1, keepdims=True)
    ln = xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-6) * g + b
    q, k, v = ln @ wq + bq, ln @ wk, ln @ wv + bv
    mixed = np.zeros_like(q)
    dh = q.shape[-1] // heads
    for i in range(q.shape[0]):
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            s = q[i, :, cols] @ k[i, :, cols].T / np.sqrt(dh)
            p = np.exp(s - s.max(axis=1, keepdims=True))
            mixed[i, :, cols] = (p / p.sum(axis=1, keepdims=True)) @ v[i, :, cols]
    return x + (mixed @ wo + bo)


def test_attention_matches_per_head_reference():
    r = _rng(13)
    x = r.normal(size=(2, 5, 8))
    params = _attention_params(r, 8)
    got = nm.attention(*map(Tensor, [x, *params]), 2).data
    np.testing.assert_allclose(got, _attention_reference(x, *params, 2), atol=1e-12)
    # one unbatched sample attends the same way
    one = nm.attention(*map(Tensor, [x[1], *params]), 2).data
    np.testing.assert_allclose(one, got[1], atol=1e-12)


def _numpy_attention_core(q, k, v, heads):
    """Scaled dot-product attention over (b, n, dim) q, k and v as one
    record whose forward and backward are whole-array numpy expressions:
    split, scale, softmax, mix and merge. The key gradient is (q^T gs)^T,
    as the unfused graph handed it to the key projection."""
    b, n, dim = q.shape
    dh = dim // heads
    sw = (0, 2, 1, 3)

    def split(a):
        return a.reshape(b, n, heads, dh).transpose(sw)

    def merge(a):
        return a.transpose(sw).reshape(b, n, dim)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    c = 1.0 / math.sqrt(dh)  # a Python float keeps float32 arrays float32
    scores = (qh @ kh.swapaxes(-1, -2)) * c
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        gm = split(g)
        gprobs = gm @ vh.swapaxes(-1, -2)
        gs = probs * (gprobs - (probs * gprobs).sum(axis=-1, keepdims=True)) * c
        return (merge(gs @ kh), merge((qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)),
                merge(probs.swapaxes(-1, -2) @ gm))

    return nm._result(merge(probs @ vh), (q, k, v), rule)


def _unfused_attention(x, g, b, wq, bq, wk, wv, bv, wo, bo, heads):
    """The records attention fuses: layer_norm, linear, matmul and linear
    for q, k and v, the core, linear and the residual add."""
    ln = nm.layer_norm(x, g, b)
    q, k, v = nm.linear(ln, wq, bq), nm.matmul(ln, wk), nm.linear(ln, wv, bv)
    return nm.add(x, nm.linear(_numpy_attention_core(q, k, v, heads), wo, bo))


def test_attention_bits_follow_the_unfused_graph():
    """One record whose value and eleven gradients, x's included, match the
    unfused graph with its residual add bit for bit, in both precisions, also where the (b, heads, n, n) scores
    span more than one BLOCK and their rows several softmax-gradient blocks.
    At head width 3
    the scale 1/sqrt(3) is inexact, so scaling q before the score GEMM
    instead of the scores after it shows in the bits."""
    b, n, heads = 2, 192, 2
    assert b * heads * n * n > nm.BLOCK and b * heads * n > 2 * (nm.BLOCK // n)
    for b, n, dim, heads in ((2, 7, 12, 3), (2, 7, 9, 3), (2, 192, 8, 2)):
        assert b * heads * n * n <= nm.SCORE_BUDGET  # the default holds them
        for dtype in (np.float32, np.float64):
            r = _rng(14)
            arrays = [r.normal(size=(b, n, dim)).astype(dtype),
                      *_attention_params(r, dim, dtype)]
            g = r.normal(size=(b, n, dim)).astype(dtype)
            want, want_grads, records = _value_and_grads(
                lambda *t: _unfused_attention(*t, heads), arrays, g)
            assert records == 7
            got, grads, records = _value_and_grads(
                lambda *t: nm.attention(*t, heads), arrays, g)
            assert records == 1
            assert got.dtype == dtype and got.tobytes() == want.tobytes()
            for a, w in zip(grads, want_grads):
                assert a.shape == w.shape and a.tobytes() == w.tobytes()


def test_attention_recomputed_weights_match_the_held_ones_bit_for_bit(monkeypatch):
    """With a budget of 0 every record keeps LayerNorm's xhat and inv alone,
    and the backward rebuilds q, k and v by the forward's GEMMs over all the
    rows, and each group's weights and mix by its GEMM, scale, softmax, GEMM
    and merge on the same operands, so the output and all ten gradients
    match the held path bit for bit, in both precisions: in groups of one
    sample, for one unbatched sample, and where the (b * heads * n) rows
    span several softmax-gradient blocks. A head width of 3 makes the scale
    1/sqrt(3) inexact, so scaling q or k before the GEMM would differ."""
    cases = (((2,), 7, 9, 3), ((2,), 192, 6, 2), ((), 7, 9, 3))
    lead, n, _, heads = cases[1]
    assert lead[0] * heads * n > 2 * (nm.BLOCK // n)
    for lead, n, dim, heads in cases:
        assert math.prod(lead) * heads * n * n <= nm.SCORE_BUDGET  # held by default
        for dtype in (np.float32, np.float64):
            r = _rng(15)
            arrays = [r.normal(size=lead + (n, dim)).astype(dtype),
                      *_attention_params(r, dim, dtype)]
            g = r.normal(size=lead + (n, dim)).astype(dtype)
            held, held_grads, _ = _value_and_grads(
                lambda *t: nm.attention(*t, heads), arrays, g)
            with monkeypatch.context() as m:
                m.setattr(nm, "SCORE_BUDGET", 0)
                got, grads, records = _value_and_grads(
                    lambda *t: nm.attention(*t, heads), arrays, g)
            assert records == 1
            assert got.tobytes() == held.tobytes()
            for a, w in zip(grads, held_grads):
                assert a.tobytes() == w.tobytes()


def _grad_attention_error(seed):
    """finite_diff_check of attention over (2, 4, 6) rows with 2 heads."""
    r = _rng(seed)
    shapes = [(2, 4, 6), (6,), (6,), (6, 6), (6,), (6, 6), (6, 6), (6,), (6, 6),
              (6,), (2, 4, 6)]
    params = [Tensor(r.normal(size=s)) for s in shapes]
    return finite_diff_check(lambda p: nm.sum_all(nm.mul(
        nm.attention(*p[:10], 2), p[10])), params)


def test_grad_attention_with_recomputed_weights(monkeypatch):
    from motionmae.cli import GRADCHECK_TOLERANCE

    monkeypatch.setattr(nm, "SCORE_BUDGET", 0)
    err = _grad_attention_error(35)
    assert err < GRADCHECK_TOLERANCE, f"max relative gradient error {err:.3e}"


# Rows whose LayerNorm (unit gain, zero shift) is [t, -t, 0, 0] and
# [0, 0, t, -t], t = 1/sqrt(0.5 + 1e-6): only the first row has a first
# coordinate, so q or k weights that read it alone set one row.
_TWO_ROWS = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])


def _attention_tensors(x, wq, bq, wk, wv, bv):
    """attention's arguments over rows x: a unit LayerNorm, the given q
    projection, k weights and v projection, and an identity output
    projection."""
    d = x.shape[-1]
    return [Tensor(a) for a in (x, np.ones(d), np.zeros(d), wq, bq, wk, wv, bv,
                                np.eye(d), np.zeros(d))]


def _one_entry(d, entries):
    """A (d, d) matrix of zeros but for the {(row, col): value} entries."""
    m = np.zeros((d, d))
    for at, value in entries.items():
        m[at] = value
    return m


@pytest.mark.parametrize("budget", [None, 0], ids=["held", "recomputed"])
def test_attention_non_finite_scores_raise_on_both_paths(monkeypatch, budget):
    """A -inf score, which the softmax would hide as a weight of 0, and a NaN
    one, from inf - inf in a score GEMM over finite q and k, raise before
    the record decides whether to keep its weights."""
    if budget is not None:
        monkeypatch.setattr(nm, "SCORE_BUDGET", budget)
    big = 1e200
    cases = ((_one_entry(4, {(0, 0): big}), _one_entry(4, {(0, 0): -big}), 4),
             (_one_entry(4, {(0, 0): big, (0, 1): big}),
              _one_entry(4, {(0, 0): big, (0, 1): -big}), 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for wq, wk, heads in cases:
            ts = _attention_tensors(_TWO_ROWS, wq, np.zeros(4), wk, np.eye(4),
                                    np.zeros(4))
            tape = Tape()
            for t in ts:
                tape.watch(t)
            with pytest.raises(NonFiniteError, match="scores"):
                nm.attention(*ts, heads)


def test_attention_rejects_misfit_inputs():
    r = _rng(16)
    x = Tensor(r.normal(size=(2, 3, 4)))
    params = [Tensor(a) for a in _attention_params(r, 4)]
    with pytest.raises(ValueError, match="heads"):
        nm.attention(x, *params, 3)
    for i in range(len(params)):
        misfit = list(params)
        misfit[i] = Tensor(np.ones(params[i].shape[:-1] + (3,)))
        with pytest.raises(ValueError, match="attention shape mismatch"):
            nm.attention(x, *misfit, 2)
    with pytest.raises(ValueError, match="attention shape mismatch"):
        nm.attention(Tensor(np.ones(4)), *params, 2)


def test_attention_single_minus_inf_score_raises():
    """One score overflows to -inf; the softmax gives it weight 0 and the
    output stays finite, so only the check of the scores catches it."""
    big = 1e200
    wq, wk = _one_entry(4, {(0, 0): big}), _one_entry(4, {(0, 0): -big})
    ts = _attention_tensors(_TWO_ROWS, wq, np.zeros(4), wk, np.eye(4), np.zeros(4))
    with np.errstate(over="ignore"):
        xc = _TWO_ROWS - _TWO_ROWS.mean(axis=-1, keepdims=True)
        ln = xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-6)
        q, k = ln @ wq, ln @ wk
        scores = q[:, :1] @ k[:, :1].T  # the first of 4 heads of width 1
        assert np.isneginf(scores).sum() == 1
        assert np.isfinite(nm._softmax_rows(scores) @ ln[:, :1]).all()
        with pytest.raises(NonFiniteError, match="scores"):
            nm.attention(*ts, 4)


def test_attention_overflowing_output_raises():
    """In the first of 4 heads of width 1, scores (37, 0) give weights
    (1.0, 8.5e-17) in float64: their sum rounds to 1, and 8.5e-17 * max is
    more than half an ulp of max, so mixing two values at the largest
    double overflows."""
    t = 1.0 / math.sqrt(0.5 + 1e-6)
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    ts = _attention_tensors(_TWO_ROWS, np.zeros((4, 4)), e0,  # every query is e0
                            _one_entry(4, {(0, 0): 37.0 / t}), np.zeros((4, 4)),
                            np.finfo(np.float64).max * e0)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        nm.attention(*ts, 4)


# ---- losses ----


def _composed_masked_penalty(pred, target, bits, kind, g):
    """The graph masked_penalty replaced (gather the rows, subtract,
    penalize, mean), op by op in plain numpy: its value, and the gradient
    of the prediction when the value's gradient is g."""
    m = int(bits.sum(axis=-1).max())
    rest = pred.shape[bits.ndim:]
    sel = pred[bits].reshape(bits.shape[:-1] + (m,) + rest)
    diff = sel - np.asarray(target, dtype=pred.dtype)
    if kind == "mse":
        pen = diff * diff
    elif kind == "l1":
        pen = np.abs(diff)
    else:
        absx = np.abs(diff)
        pen = np.where(absx <= 1.0, 0.5 * diff * diff, 1.0 * (absx - 0.5 * 1.0))
    n = pen.size
    value = np.asarray(pen.sum() / n).astype(pred.dtype, copy=False)
    g = np.broadcast_to(g / n, pen.shape)
    if kind == "mse":  # each operand of diff * diff, then their sum
        gdiff = g * diff + g * diff
    elif kind == "l1":
        gdiff = g * np.sign(diff)
    else:
        gdiff = g * np.clip(diff, -1.0, 1.0)
    gpred = np.zeros_like(pred)
    gpred[bits] = gdiff.reshape((-1,) + rest)
    return value, gpred


def _composed_cross_entropy(x, labels, g):
    """The graph cross_entropy replaced, op by op in plain numpy: its value,
    and the gradient of the logits when the value's gradient is g."""
    b, c = x.shape
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    scaled = e.mean(axis=1) * float(c)
    lse = np.log(scaled)
    onehot = np.zeros((b, c), dtype=x.dtype)
    onehot[np.arange(b), labels] = 1.0
    picked = np.asarray((shifted * onehot).sum())
    value = (np.asarray(lse.sum()) - picked) * (1.0 / b)
    g = g * (1.0 / b)
    g_picked = np.broadcast_to(-g, (b, c)) * onehot  # replayed first
    g_scaled = np.broadcast_to(g, (b,)) / scaled * float(c)
    g_exp = np.broadcast_to(np.expand_dims(g_scaled / c, 1), (b, c)) * e
    return value, g_picked + g_exp


def _record(build, x, lam):
    """Value and input gradient of build(x) scaled by lam, and how many
    records build(x) took on the tape."""
    t = Tensor(x)
    tape = Tape()
    tape.watch(t)
    loss = build(t)
    records = len(tape)
    backward(nm.scale(loss, lam), tape)
    return loss.data, t.grad, records


def _bits(r, shape, m):
    bits = np.zeros(shape, dtype=bool)
    for row in bits.reshape(-1, shape[-1]):
        row[r.choice(shape[-1], m, replace=False)] = True
    return bits


@pytest.mark.parametrize("kind", nm.LOSS_KINDS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masked_penalty_bits_follow_the_composed_graph(dtype, kind):
    r = _rng(15)
    for bits_shape in [(9,), (3, 9)] * 10:
        k, m = int(r.integers(1, 6)), int(r.integers(1, 10))
        bits = _bits(r, bits_shape, m)
        pred = (r.normal(size=bits_shape + (k,)) * 1.5).astype(dtype)
        target = r.normal(size=bits_shape[:-1] + (m, k)).astype(np.float32)
        lam = float(r.uniform(0.1, 3.0))
        value, grad, records = _record(
            lambda t: nm.masked_penalty(t, target, bits, kind), pred, lam)
        want_value, want_grad = _composed_masked_penalty(
            pred, target, bits, kind, np.ones((), dtype) * lam)
        assert records == 1
        assert value.dtype == want_value.dtype == grad.dtype == dtype
        np.testing.assert_array_equal(value, want_value)
        np.testing.assert_array_equal(grad, want_grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_bits_follow_the_composed_graph(dtype):
    r = _rng(16)
    for _ in range(20):
        b, c = int(r.integers(1, 9)), int(r.integers(2, 9))
        logits = (r.normal(size=(b, c)) * 3.0).astype(dtype)
        labels = r.integers(0, c, size=b)
        lam = float(r.uniform(0.1, 3.0))
        value, grad, records = _record(
            lambda t: nm.cross_entropy(t, labels), logits, lam)
        want_value, want_grad = _composed_cross_entropy(
            logits, labels, np.ones((), dtype) * lam)
        assert records == 1
        assert value.dtype == grad.dtype == dtype
        np.testing.assert_array_equal(value, want_value)
        np.testing.assert_array_equal(grad, want_grad)


# ---- softmax ----


def test_softmax_symmetry():
    out = nm.softmax(Tensor([0.0, 0.0])).data
    np.testing.assert_allclose(out, [0.5, 0.5])


def test_softmax_analytic():
    out = nm.softmax(Tensor([0.0, np.log(3.0)])).data
    np.testing.assert_allclose(out, [0.25, 0.75], rtol=1e-12)


def test_softmax_shift_invariance():
    r = _rng(5)
    x = r.normal(size=(3, 7))
    a = nm.softmax(Tensor(x)).data
    b = nm.softmax(Tensor(x + 123.456)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_softmax_rows_sum_to_one(seed):
    """Stability invariant: holds even for magnitude-1e4 inputs."""
    x = np.random.default_rng(seed).uniform(-1e4, 1e4, size=(4, 9))
    out = nm.softmax(Tensor(x)).data
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)


def _composed_softmax(x, g):
    """The whole-array softmax graph in plain numpy (shift by the row max,
    exp, divide by the row sum): its value, and its input gradient for the
    upstream gradient g."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)
    return out, out * (g - (out * g).sum(axis=-1, keepdims=True))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 7), (3, 200, 130), (3, nm.BLOCK + 5)],
                         ids=["rows", "rows-over-blocks", "row-over-a-block"])
def test_softmax_bits_follow_the_composed_graph(shape, dtype):
    """Value and gradient match the composed graph bit for bit, also where
    the gradient runs in several blocks or a row outgrows a block, and
    neither the input nor the upstream gradient is written into."""
    r = _rng(6)
    x, g = (r.normal(size=shape).astype(dtype) for _ in range(2))
    x0, g0 = x.copy(), g.copy()
    want, want_grad = _composed_softmax(x, g)
    tape = Tape()
    xt = Tensor(x)
    tape.watch(xt)
    out = nm.softmax(xt)
    (grad,) = tape._records[-1][2](g)
    assert out.data.tobytes() == want.tobytes()
    assert grad.tobytes() == want_grad.tobytes()
    assert x.tobytes() == x0.tobytes() and g.tobytes() == g0.tobytes()


def _max_reduce_softmax_rows(x):
    """The in-place softmax kernel with the row max taken by a max
    reduction."""
    x -= np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= np.add.reduce(x, axis=-1, keepdims=True)
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, axis", [((16, 4, 64, 64), -1), ((3, 9, 5), 1),
                                         ((7, 4), 0)])
def test_softmax_rows_argmax_max_matches_the_max_reduction(shape, axis, dtype):
    """The row max picked by argmax gives the kernel the bits of a max
    reduction, also in rows where -0 and +0 tie for the max, and in rows
    strided through memory: the last axis of a view that moves `axis`
    last."""
    x = _rng(16).normal(size=shape).astype(dtype)
    rows = np.moveaxis(x, axis, -1)  # a view: writes land in x
    rows[0, ...] = -np.abs(rows[0, ...])
    rows[0, ..., :2] = (-0.0, 0.0)  # max of the row, tied between -0 and +0
    rows[-1, ...] = -np.abs(rows[-1, ...])
    rows[-1, ..., :2] = (0.0, -0.0)
    want = _max_reduce_softmax_rows(np.moveaxis(x.copy(), axis, -1))
    got = nm._softmax_rows(np.moveaxis(x.copy(), axis, -1))
    assert got.tobytes() == want.tobytes()


# ---- layer_norm ----


def test_layer_norm_constant_row_collapses():
    x = Tensor(np.full((2, 8), 3.7))
    g = Tensor(np.ones(8))
    b = Tensor(np.zeros(8))
    np.testing.assert_allclose(nm.layer_norm(x, g, b).data, 0.0, atol=1e-9)


def test_layer_norm_already_normalized():
    x = Tensor([[-1.0, 1.0]])
    g = Tensor(np.ones(2))
    b = Tensor(np.zeros(2))
    np.testing.assert_allclose(nm.layer_norm(x, g, b).data, [[-1.0, 1.0]], atol=1e-5)


def test_layer_norm_beta_shift():
    x = Tensor(np.full((3, 4), 9.0))
    g = Tensor(np.ones(4))
    b = Tensor(np.full(4, 2.5))
    np.testing.assert_allclose(nm.layer_norm(x, g, b).data, 2.5, atol=1e-9)


def test_layer_norm_population_variance():
    # with gamma=1, beta=0 the output row has mean 0 and *biased* variance ~1
    r = _rng(6)
    x = r.normal(size=(5, 16))
    out = nm.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_bits_match_the_mean_form():
    """The reduce-and-divide means give the bits of ndarray.mean."""
    r = _rng(15)
    for shape in [(5, 16), (2, 9, 32), (3, 7), (4, 192)]:
        x = r.normal(size=shape).astype(np.float32)
        gd = r.normal(size=shape[-1]).astype(np.float32)
        bd = r.normal(size=shape[-1]).astype(np.float32)
        g = r.normal(size=shape).astype(np.float32)
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-6)
        xhat = xc * inv
        gxh = g * gd
        want_gx = inv * (gxh - gxh.mean(axis=-1, keepdims=True)
                         - xhat * (gxh * xhat).mean(axis=-1, keepdims=True))
        ts = [Tensor(x), Tensor(gd), Tensor(bd)]
        tape = Tape()
        tape.watch(ts[0])
        out = nm.layer_norm(*ts)
        np.testing.assert_array_equal(out.data, xhat * gd + bd)
        backward(nm.sum_all(nm.mul(out, Tensor(g))), tape)
        np.testing.assert_array_equal(ts[0].grad, want_gx)


def _expression_layer_norm(x, gd, bd, g, eps=1e-6):
    """layer_norm as whole-array expressions, each a fresh array: the value
    and the x, gamma and beta gradients for the upstream gradient g."""
    d = x.shape[-1]

    def mean(a):
        s = np.add.reduce(a, axis=-1, keepdims=True)
        s /= d
        return s

    xc = x - mean(x)
    inv = 1.0 / np.sqrt(mean(xc * xc) + eps)
    xhat = xc * inv
    lead = tuple(range(g.ndim - 1))
    gxh = g * gd
    gx = inv * (gxh - mean(gxh) - xhat * mean(gxh * xhat))
    return (xhat * gd + bd, gx, np.add.reduce(g * xhat, axis=lead),
            np.add.reduce(g, axis=lead))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(6,), (3, 7), (4, 256, 96), (1, 256, 192)])
def test_layer_norm_in_place_bits_follow_the_expressions(shape, dtype):
    """The in-place forward and backward run the expressions' IEEE
    operations in their order, so value and all three gradients match them
    bit for bit; the upstream gradient is not written into."""
    r = _rng(17)
    x, g = (r.normal(loc=0.5, scale=3.0, size=shape).astype(dtype) for _ in range(2))
    gd, bd = (r.normal(size=shape[-1]).astype(dtype) for _ in range(2))
    g0 = g.copy()
    want = _expression_layer_norm(x, gd, bd, g)
    ts = [Tensor(a) for a in (x, gd, bd)]
    tape = Tape()
    for t in ts:
        tape.watch(t)
    out = nm.layer_norm(*ts)
    got = (out.data,) + tuple(tape._records[-1][2](g))
    for a, w in zip(got, want):
        assert a.dtype == dtype and a.tobytes() == w.tobytes()
    assert g.tobytes() == g0.tobytes()


def test_layer_norm_shape_mismatch():
    with pytest.raises(ValueError):
        nm.layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


# ---- gelu ----


def test_gelu_fixed_points():
    assert float(nm.gelu(Tensor(0.0)).data) == 0.0
    assert abs(float(nm.gelu(Tensor(10.0)).data) - 10.0) < 1e-6
    assert abs(float(nm.gelu(Tensor(-10.0)).data)) < 1e-6


def _composed_gelu(x, g):
    """The whole-array GELU expressions in plain numpy: the value, and the
    input gradient for the upstream gradient g."""
    k, c = math.sqrt(2.0 / math.pi), 0.044715
    u = k * (x + c * (x * x * x))
    t = np.tanh(u)
    out = 0.5 * x * (1.0 + t)
    du = k * (1.0 + 3.0 * c * x * x)
    return out, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(), (3, 1000), (2 * nm.BLOCK + 123,)],
                         ids=["0d", "one-block", "blocks-and-remainder"])
def test_gelu_bits_follow_the_whole_array_expressions(shape, dtype):
    """Value and gradient match the whole-array expressions bit for bit,
    including where their intermediates overflow (x*x*x, and 2x under a
    wrong order such as 0.5*(x*(1+t))) or fall below the normal range; the
    upstream gradient is not written into."""
    fi = np.finfo(dtype)
    r = _rng(21)
    x = np.asarray(3.0 * r.normal(size=shape), dtype)  # 0-d stays an array
    g = np.asarray(r.normal(size=shape), dtype)
    edges = np.array([0.75 * fi.max, -0.75 * fi.max, 3 * fi.tiny,
                      5 * fi.smallest_subnormal, 0.0, -0.0], dtype)
    if x.ndim:
        x.reshape(-1)[: edges.size] = edges
        x.reshape(-1)[-edges.size :] = edges
    else:
        x[...] = edges[0]
    g0 = g.copy()
    with np.errstate(all="ignore"):
        want, want_grad = _composed_gelu(x, g)
        tape = Tape()
        xt = Tensor(x)
        tape.watch(xt)
        out = nm.gelu(xt)
        (grad,) = tape._records[-1][2](g)
    assert out.data.shape == shape and grad.shape == shape
    assert out.data.tobytes() == np.asarray(want).tobytes()
    assert grad.tobytes() == np.asarray(want_grad).tobytes()
    assert g.tobytes() == g0.tobytes()


def _unfused_mlp(x, g, b, w1, b1, w2, b2):
    """The records mlp fuses: layer_norm, linear, gelu, linear and the
    residual add."""
    return nm.add(x, nm.linear(nm.gelu(nm.linear(nm.layer_norm(x, g, b), w1, b1)),
                               w2, b2))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead, d, hid", [((3, 5), 8, 12), ((2, 100), 16, 700),
                                          ((130,), 6, 1024)],
                         ids=["one-block", "blocks-and-remainder", "whole-blocks"])
def test_mlp_bits_follow_linear_gelu_linear(lead, d, hid, dtype):
    """One record whose value and seven gradients, x's included, match the
    five records layer_norm, linear, gelu, linear and add bit for bit, also
    where the hidden activations span several GELU blocks; an untracked x
    gets no gradient.
    GELU is written into h in place, and the backward rebuilds h by the
    forward's GEMM and bias add on the same bytes, then overwrites it with
    GELU in the pass that takes GELU's gradient."""
    r = _rng(25)
    arrs = [r.normal(size=lead + (d,)), 1.0 + 0.1 * r.normal(size=d),
            0.1 * r.normal(size=d), 0.5 * r.normal(size=(d, hid)),
            r.normal(size=hid), 0.3 * r.normal(size=(hid, d)), r.normal(size=d)]
    arrs = [a.astype(dtype) for a in arrs]
    g = r.normal(size=lead + (d,)).astype(dtype)
    want, want_grads, records = _value_and_grads(_unfused_mlp, arrs, g)
    assert records == 5
    got, grads, records = _value_and_grads(nm.mlp, arrs, g)
    assert records == 1
    assert got.dtype == dtype and got.tobytes() == want.tobytes()
    for a, w in zip(grads, want_grads):
        assert a.shape == w.shape and a.tobytes() == w.tobytes()
    _, grads, _ = _value_and_grads(nm.mlp, arrs, g, track_x=False)
    assert grads[0] is None
    for a, w in zip(grads[1:], want_grads[1:]):
        assert a.tobytes() == w.tobytes()


def test_grad_mlp_with_recomputed_hidden_layer():
    from motionmae.cli import GRADCHECK_TOLERANCE

    r = _rng(36)
    shapes = [(2, 3, 4), (4,), (4,), (4, 6), (6,), (6, 4), (4,), (2, 3, 4)]
    params = [Tensor(r.normal(size=s)) for s in shapes]
    err = finite_diff_check(
        lambda p: nm.sum_all(nm.mul(nm.mlp(*p[:7]), p[7])), params)
    assert err < GRADCHECK_TOLERANCE, f"max relative gradient error {err:.3e}"


def test_mlp_rejects_misfit_shapes():
    x = Tensor(np.ones((2, 4)))
    g, b = Tensor(np.ones(4)), Tensor(np.zeros(4))
    w1, b1 = Tensor(np.ones((4, 6))), Tensor(np.zeros(6))
    w2, b2 = Tensor(np.ones((6, 4))), Tensor(np.zeros(4))
    assert nm.mlp(x, g, b, w1, b1, w2, b2).shape == (2, 4)
    for args in [(x, g, b, w1, b1, Tensor(np.ones((5, 4))), b2),
                 # a residual cannot add an (H, E != D) second weight's output
                 (x, g, b, w1, b1, Tensor(np.ones((6, 3))), Tensor(np.zeros(3))),
                 (x, g, b, w1, Tensor(np.zeros(5)), w2, b2),
                 (x, g, b, w1, b1, w2, Tensor(np.zeros(3))),
                 (x, Tensor(np.ones(3)), b, w1, b1, w2, b2),
                 (x, g, Tensor(np.zeros(5)), w1, b1, w2, b2),
                 (Tensor(np.ones((2, 5))), g, b, w1, b1, w2, b2)]:
        with pytest.raises(ValueError, match="mlp shape mismatch"):
            nm.mlp(*args)


def test_gelu_keeps_finiteness():
    """GELU is finite exactly where its input is, so mlp checks only the
    pre-activation: values whose cube overflows saturate, and inf, -inf and
    NaN stay non-finite."""
    for dtype in (np.float32, np.float64):
        fi = np.finfo(dtype)
        x = np.array([fi.max, -fi.max, 1e13, -1e13, fi.tiny, -0.0,
                      np.inf, -np.inf, np.nan], dtype)
        with np.errstate(all="ignore"):
            out = nm._gelu_forward(x, np.empty_like(x))
        np.testing.assert_array_equal(np.isfinite(out), np.isfinite(x))


def test_mlp_overflowing_pre_activation_raises():
    big = np.finfo(np.float64).max
    x = Tensor(np.array([[1.0, -1.0]]))  # LayerNorm rows (t, -t), t near 1
    g, b = Tensor(np.ones(2)), Tensor(np.zeros(2))
    w1, b1 = Tensor(np.array([[big] * 3, [0.0] * 3])), Tensor(np.full(3, big))
    w2, b2 = Tensor(np.ones((3, 2))), Tensor(np.zeros(2))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="pre-activation"):
        nm.mlp(x, g, b, w1, b1, w2, b2)


@pytest.mark.parametrize("op", ["mlp", "masked_penalty", "scatter_rows"])
def test_records_free_the_inputs_their_rules_do_not_read(op):
    """mlp, masked_penalty and scatter_rows rules read their input's shape
    only, so a record must not keep the input's array alive: once the caller
    drops the input, the array is freed while the record is still taped, and
    the backward still runs."""
    import weakref

    r = _rng(61)
    x = Tensor(r.normal(size=(2, 4, 6)))
    tape = Tape()
    tape.watch(x)
    y = nm.scale(x, 2.0)  # an intermediate whose array only the caller holds
    bits = np.array([[True, False, True, False], [False, True, True, False]])
    if op == "mlp":
        params = [Tensor(r.normal(size=s)) for s in [(6,), (6,), (6, 8), (8,),
                                                      (8, 6), (6,)]]
        loss = nm.sum_all(nm.mlp(y, *params))
    elif op == "masked_penalty":
        loss = nm.masked_penalty(y, np.zeros((2, 2, 6)), bits, "mse")
    else:
        loss = nm.sum_all(nm.scatter_rows(y, np.repeat(bits, 2, axis=-1)))
    freed = weakref.ref(y.data)
    del y
    assert freed() is None, f"the {op} record keeps its input's array"
    assert len(tape) >= 2
    backward(loss, tape)
    assert x.grad.shape == x.shape and np.abs(x.grad).sum() > 0


def _traced_peak(fn):
    """The peak bytes that numpy and Python allocate while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gelu_forward_and_backward_peak_memory():
    """On a 3 MiB float32 array, forward plus backward allocate the output,
    a finite check's flags, the gradient and block-sized scratch, and the
    record keeps neither tanh(u) nor the output: under 1.5 times the array
    (the whole-array expressions peaked at 6 times, a record that kept
    tanh(u) at 2.3 times)."""
    r = _rng(22)
    x, g = (r.normal(size=(4, 256, 768)).astype(np.float32) for _ in range(2))
    tape = Tape()
    xt = Tensor(x)
    tape.watch(xt)

    def run():
        nm.gelu(xt)
        tape._records[-1][2](g)

    peak = _traced_peak(run)
    assert peak < 1.5 * x.nbytes, f"peak {peak / x.nbytes:.2f} x the input"


def test_attention_forward_and_backward_peak_memory():
    """One attention call owns its scores: the softmax runs in them, and its
    gradient in the product it is applied to, so forward plus backward peak
    under 2.5 times the (B, heads, N, N) scores: the weights, that product
    and (B, N, E) arrays (the composed softmax peaked at 3 times)."""
    r = _rng(23)
    b, n, dim, heads = 4, 256, 32, 4
    x, g = (r.normal(size=(b, n, dim)).astype(np.float32) for _ in range(2))
    params = _attention_params(r, dim, np.float32)
    scores = b * heads * n * n * 4

    def run():
        ts = [Tensor(a) for a in (x, *params)]
        tape = Tape()
        for t in ts:
            tape.watch(t)
        nm.attention(*ts, heads)
        tape._records[-1][2](g)

    peak = _traced_peak(run)
    assert peak < 2.5 * scores, f"peak {peak / scores:.2f} x the scores"


@pytest.mark.parametrize("b, held", [(4, False), (1, True)])
def test_attention_record_holds_its_weights_only_within_the_budget(b, held):
    """After a taped forward over (b, 256, 32) rows with 4 heads, the record
    holds the (b, 4, 256, 256) float32 weights only where they fit in
    SCORE_BUDGET: 262,144 of them at b = 1 do, 1,048,576 at b = 4 do not.
    Beside them it holds five (b, 256, 32) arrays, xhat, q, k, v and the
    mix; without them it holds xhat and inv alone, about one such array.
    It never holds the LayerNorm output."""
    r = _rng(25)
    n, dim, heads = 256, 32, 4
    weights = b * heads * n * n
    rows = b * n * dim * 4
    assert (weights <= nm.SCORE_BUDGET) == held
    ts = [Tensor(r.normal(size=(b, n, dim)).astype(np.float32)),
          *map(Tensor, _attention_params(r, dim, np.float32))]
    tape = Tape()
    for t in ts:
        tape.watch(t)
    tracemalloc.start()
    try:
        out = nm.attention(*ts, heads)
        kept = tracemalloc.get_traced_memory()[0] - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert len(tape) == 1
    kept -= 4 * weights if held else 0
    arrays = 5 if held else 1
    assert arrays * rows <= kept < (arrays + 0.5) * rows, (
        f"record holds {kept / rows:.2f} x the rows")


# ---- backward ----


def test_backward_sum_of_squares():
    x = Tensor(_rng(7).normal(size=(4, 3)))
    tape = Tape()
    tape.watch(x)
    loss = nm.sum_all(nm.mul(x, x))
    backward(loss, tape)
    np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-12)


def test_backward_matmul_finite_difference():
    r = _rng(8)
    a = Tensor(r.normal(size=(3, 4)))
    b = Tensor(r.normal(size=(4, 2)))

    def f(params):
        return nm.sum_all(nm.matmul(params[0], params[1]))

    assert finite_diff_check(f, [a, b]) < 1e-4


def test_backward_independent_sums():
    x = Tensor(_rng(9).normal(size=5))
    y = Tensor(_rng(10).normal(size=7))
    tape = Tape()
    tape.watch(x)
    tape.watch(y)
    loss = nm.add(nm.sum_all(x), nm.sum_all(y))
    backward(loss, tape)
    np.testing.assert_array_equal(x.grad, np.ones(5))
    np.testing.assert_array_equal(y.grad, np.ones(7))


def test_backward_accumulates_shared_node():
    # x feeds two consumers: loss = sum(x) + sum(x*x) -> grad = 1 + 2x
    x = Tensor(_rng(11).normal(size=6))
    tape = Tape()
    tape.watch(x)
    loss = nm.add(nm.sum_all(x), nm.sum_all(nm.mul(x, x)))
    backward(loss, tape)
    np.testing.assert_allclose(x.grad, 1.0 + 2.0 * x.data, rtol=1e-12)


@pytest.mark.parametrize("leaf", [False, True], ids=["node", "leaf"])
def test_backward_adds_a_third_contribution_in_place(leaf):
    """A node with three consumers gets the bits of the out-of-place sum, in
    replay order, and the arrays the rules returned are left as they were;
    a watched leaf accumulates its grad the same way."""
    rng = _rng(12)
    x = Tensor(rng.normal(size=(4, 5)).astype(np.float32))
    contribs = [rng.normal(size=(4, 5)).astype(np.float32) for _ in range(3)]
    kept = [c.copy() for c in contribs]
    tape = Tape()
    tape.watch(x)
    node = x if leaf else nm.scale(x, 1.0)
    outs = [nm._result(node.data.copy(), (node,), lambda g, c=c: (c,))
            for c in contribs]
    loss = nm.add(nm.add(nm.sum_all(outs[0]), nm.sum_all(outs[1])),
                  nm.sum_all(outs[2]))
    backward(loss, tape)
    want = (kept[2] + kept[1]) + kept[0]  # the last consumer replays first
    assert x.grad.tobytes() == want.tobytes()
    assert not any(x.grad is c for c in contribs)
    for c, k in zip(contribs, kept):
        assert c.tobytes() == k.tobytes()


def test_watch_without_a_buffer_gives_the_leaf_a_zero_buffer():
    """A leaf the loss does not reach gets a zero gradient of its shape and
    dtype, and a reached leaf's gradient is a writable array rather than
    the read-only view (a broadcast) a rule returned."""
    x, unused = Tensor(np.ones(3, np.float32)), Tensor(np.ones((2, 2), np.float32))
    tape = Tape()
    tape.watch(x)
    tape.watch(unused)
    backward(nm.sum_all(x), tape)
    assert unused.grad.shape == (2, 2) and unused.grad.dtype == np.float32
    assert not unused.grad.any()
    assert x.grad.tolist() == [1.0, 1.0, 1.0] and x.grad.flags.writeable


def test_a_leaf_the_loss_does_not_reach_gets_zeros_in_its_buffer():
    """A leaf may still hold an earlier pass's gradient; a leaf the loss
    does not reach gets zeros, not those stale values."""
    x, y = Tensor(np.ones(3, np.float32)), Tensor(np.ones(3, np.float32))
    y.grad = np.full(3, 7.0, np.float32)
    tape = Tape()
    tape.watch(x)
    tape.watch(y)
    backward(nm.sum_all(x), tape)
    assert y.grad.dtype == np.float32 and y.grad.tolist() == [0.0, 0.0, 0.0]


def test_backward_rejects_nonscalar_loss():
    x = Tensor(np.ones(3))
    tape = Tape()
    tape.watch(x)
    y = nm.mul(x, x)
    with pytest.raises(ValueError):
        backward(y, tape)


def test_backward_rejects_detached_loss():
    x = Tensor(np.ones(3))
    tape = Tape()
    tape.watch(x)
    detached = Tensor(np.asarray(1.0))
    with pytest.raises(ValueError):
        backward(detached, tape)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_backward_linearity(seed):
    """grad(a*L1 + b*L2) == a*grad(L1) + b*grad(L2) in double precision."""
    r = np.random.default_rng(seed)
    xv = r.normal(size=(3, 3))
    a, b = 1.7, -0.3

    def grad_of(build):
        x = Tensor(xv.copy())
        tape = Tape()
        tape.watch(x)
        backward(build(x), tape)
        return x.grad

    def l1(x):
        return nm.sum_all(nm.mul(x, x))

    def l2(x):
        return nm.sum_all(nm.gelu(x))

    combined = grad_of(lambda x: nm.add(nm.scale(l1(x), a), nm.scale(l2(x), b)))
    separate = a * grad_of(l1) + b * grad_of(l2)
    np.testing.assert_allclose(combined, separate, atol=1e-10)


# ---- per-op gradient checks ----


def _check(f, shapes, seed, eps=1e-5):
    r = np.random.default_rng(seed)
    params = [Tensor(r.normal(size=s)) for s in shapes]
    err = finite_diff_check(f, params, eps=eps)
    assert err < 1e-4, f"max relative gradient error {err:.3e}"


def test_grad_add_broadcast():
    _check(lambda p: nm.sum_all(nm.add(p[0], p[1])), [(3, 4), (4,)], 20)


def test_grad_mul():
    _check(lambda p: nm.sum_all(nm.mul(p[0], p[1])), [(2, 5), (2, 5)], 22)


def test_grad_softmax():
    _check(lambda p: nm.sum_all(nm.mul(nm.softmax(p[0]), p[1])),
           [(3, 5), (3, 5)], 23)


def test_grad_layer_norm():
    _check(lambda p: nm.sum_all(nm.mul(nm.layer_norm(p[0], p[1], p[2]), p[3])),
           [(4, 6), (6,), (6,), (4, 6)], 24)


def test_grad_gelu():
    _check(lambda p: nm.sum_all(nm.mul(nm.gelu(p[0]), p[0])), [(3, 3)], 25)


def test_grad_absolute():
    """The absolute difference of the l1 penalty, away from its kink at 0."""
    r = np.random.default_rng(27)
    x = Tensor(np.sign(r.normal(size=(2, 4))) * (0.5 + r.uniform(size=(2, 4))))
    bits = np.ones(2, dtype=bool)
    err = finite_diff_check(
        lambda p: nm.masked_penalty(p[0], np.zeros((2, 4)), bits, "l1"), [x])
    assert err < 1e-4


def test_grad_huber():
    """The smooth-L1 (Huber) penalty, with differences on both sides of 1."""
    r = np.random.default_rng(28)
    x = Tensor(r.normal(size=(5, 2)) * 2.0)
    bits = np.ones(5, dtype=bool)
    err = finite_diff_check(
        lambda p: nm.masked_penalty(p[0], np.zeros((5, 2)), bits, "smooth_l1"), [x])
    assert err < 1e-4


def test_grad_gather_scatter():
    """Rows scattered into place, then gathered by other bits for a penalty."""
    target = np.random.default_rng(31).normal(size=(4, 3))

    def f(p):
        spread = nm.scatter_rows(p[0], np.array([1, 0, 1, 1, 1, 0], dtype=bool))
        return nm.masked_penalty(spread, target,
                                 np.array([1, 1, 0, 1, 0, 1], dtype=bool), "mse")
    _check(f, [(4, 3)], 30)


def test_grad_means():
    _check(lambda p: nm.sum_all(nm.mean_axis(nm.mul(p[0], p[0]), 0)), [(3, 4)], 33)


def test_grad_linear():
    _check(lambda p: nm.sum_all(nm.mul(nm.linear(p[0], p[1], p[2]), p[3])),
           [(2, 3, 4), (4, 5), (5,), (2, 3, 5)], 34)


def test_grad_attention():
    err = _grad_attention_error(35)
    assert err < 1e-4, f"max relative gradient error {err:.3e}"


# ---- finiteness policing ----


@np.errstate(over="ignore", invalid="ignore")
def test_loss_records_raise_on_overflow():
    big, rows = np.float32(3e38), np.ones(2, dtype=bool)
    pred = Tensor(np.full((2, 3), big))
    with pytest.raises(NonFiniteError):  # the difference overflows float32
        nm.masked_penalty(pred, np.full((2, 3), -big), rows, "l1")
    with pytest.raises(NonFiniteError):  # the squared difference does
        nm.masked_penalty(pred, np.zeros((2, 3), np.float32), rows, "mse")
    with pytest.raises(NonFiniteError):  # so does the shift by the row max
        nm.cross_entropy(Tensor(np.array([[-big, big]])), 0)


def test_tensor_rejects_nan():
    with pytest.raises(NonFiniteError):
        Tensor([np.nan])


# ---- adamw ----


def test_adamw_first_step_closed_form():
    """m-hat = g, v-hat = g^2 on step one, so delta = -lr*g/(|g|+eps)."""
    p = {"w": Tensor(np.array([1.0]))}
    state = OptimState.for_params(p)
    p["w"].grad = np.array([2.0])
    adamw_step(p, state, lr=0.1, beta1=0.9, beta2=0.95, eps=1e-8, weight_decay=0.0)
    want = 1.0 - 0.1 * 2.0 / (2.0 + 1e-8)
    np.testing.assert_allclose(p["w"].data, [want], rtol=1e-12)
    assert state.t == 1 and p["w"].grad is None  # no gradient outlives its step


def test_adamw_zero_grad_no_change():
    p = {"w": Tensor(np.array([3.0, -1.0]))}
    state = OptimState.for_params(p)
    p["w"].grad = np.zeros(2)
    adamw_step(p, state, lr=0.5, weight_decay=0.0)
    np.testing.assert_array_equal(p["w"].data, [3.0, -1.0])
    assert state.t == 1


def test_adamw_decoupled_decay():
    p = {"w": Tensor(np.array([4.0]))}
    state = OptimState.for_params(p)
    p["w"].grad = np.zeros(1)
    adamw_step(p, state, lr=0.1, weight_decay=0.2)
    np.testing.assert_allclose(p["w"].data, [4.0 * (1.0 - 0.1 * 0.2)], rtol=1e-12)


def test_adamw_bit_deterministic():
    def run():
        r = np.random.default_rng(99)
        p = {"a": Tensor(r.normal(size=(3, 3))), "b": Tensor(r.normal(size=3))}
        state = OptimState.for_params(p)
        for step in range(10):
            for t in p.values():
                t.grad = np.full(t.shape, 0.1 * (step + 1))
            adamw_step(p, state, lr=1e-2, weight_decay=0.05)
        return {k: v.data.copy() for k, v in p.items()}

    one, two = run(), run()
    for k in one:
        assert (one[k] == two[k]).all()


def test_adamw_rejects_a_parameter_without_a_gradient():
    """A missing or mis-shaped grad is named, before the update changes
    anything."""
    p = {"a": Tensor(np.ones(2)), "b": Tensor(np.ones(3))}
    state = OptimState.for_params(p)
    p["a"].grad = np.ones(2)
    with pytest.raises(ValueError, match="'b' has no gradient"):
        adamw_step(p, state, lr=0.1)
    p["b"].grad = np.ones(2)
    with pytest.raises(ValueError, match="'b' has no gradient of its shape"):
        adamw_step(p, state, lr=0.1)
    assert state.t == 0 and p["a"].data.tolist() == [1.0, 1.0]
    assert not state.flat_m.any() and p["a"].grad is not None


def test_adamw_rejects_bad_beta():
    p = {"w": Tensor(np.ones(1))}
    with pytest.raises(ValueError):
        adamw_step(p, OptimState.for_params(p), lr=0.1, beta1=1.0)


def _adamw_per_tensor(params, grads, m, v, t, lr, beta1, beta2, eps, weight_decay):
    """The tensor-by-tensor AdamW update: the oracle of the arena pass."""
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if weight_decay != 0.0:
            p *= 1.0 - lr * weight_decay
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * (g * g)
        p -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)


@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_arena_adamw_matches_per_tensor_update(dtype, weight_decay):
    """Over more than one chunk, with a partial last chunk, several steps of
    the arena pass give the per-tensor update's bits, and the parameters and
    moments are the arena's views, laid out in dict order."""
    shapes = {"w1": (301, 250), "b1": (250,), "e": (0, 4), "w2": (129, 40), "s": (3,)}
    total = sum(math.prod(s) for s in shapes.values())
    assert total > nm.BLOCK and total % nm.BLOCK
    rng = _rng(13)
    ref = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
    params = {k: Tensor(a.copy()) for k, a in ref.items()}
    state = OptimState.for_params(params)
    m = {k: np.zeros_like(a) for k, a in ref.items()}
    v = {k: np.zeros_like(a) for k, a in ref.items()}
    for step in range(1, 5):
        grads = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
        for name, g in grads.items():
            params[name].grad = g
        lr = 1e-2 / step
        adamw_step(params, state, lr=lr, beta1=0.9, beta2=0.95, eps=1e-8,
                   weight_decay=weight_decay)
        assert all(p.grad is None for p in params.values())
        _adamw_per_tensor(ref, grads, m, v, step, lr, 0.9, 0.95, 1e-8, weight_decay)
    assert state.t == 4
    for name in shapes:
        assert params[name].data is state.param[name]
        assert params[name].data.tobytes() == ref[name].tobytes()
    for flat, want in ((state.flat_param, ref), (state.flat_m, m), (state.flat_v, v)):
        assert flat.tobytes() == b"".join(want[k].tobytes() for k in shapes)


def test_adamw_chunks_may_end_on_tensor_boundaries(monkeypatch):
    """With a 4-element BLOCK, chunks end inside a tensor, at a tensor's
    end and past an empty tensor, and the params dict lists the tensors in
    another order than the arena; every element still gets its own
    tensor's gradient, as in the per-tensor update."""
    monkeypatch.setattr(nm, "BLOCK", 4)
    shapes = {"a": (4,), "e": (0,), "b": (3,), "c": (2, 3), "d": (1,)}
    rng = _rng(17)
    ref = {k: rng.normal(size=s) for k, s in shapes.items()}
    params = {k: Tensor(a.copy()) for k, a in ref.items()}
    state = OptimState.for_params(params)
    grads = {k: rng.normal(size=s) for k, s in shapes.items()}
    for name, g in grads.items():
        params[name].grad = g
    adamw_step(dict(reversed(params.items())), state, lr=1e-2, weight_decay=0.05)
    _adamw_per_tensor(ref, grads, {k: np.zeros(s) for k, s in shapes.items()},
                      {k: np.zeros(s) for k, s in shapes.items()}, 1, 1e-2, 0.9, 0.95,
                      1e-8, 0.05)
    for name in shapes:
        assert params[name].data.tobytes() == ref[name].tobytes()


def test_adamw_rejects_a_parameter_moved_off_its_arena_view():
    """A rebound tensor would silently stop being trained."""
    p = {"w": Tensor(np.ones(3))}
    state = OptimState.for_params(p)
    p["w"].data = p["w"].data.copy()
    with pytest.raises(ValueError, match="arena view"):
        adamw_step(p, state, lr=0.1)


def test_arena_rejects_mixed_dtypes():
    p = {"a": Tensor(np.ones(2, np.float32)), "b": Tensor(np.ones(2))}
    with pytest.raises(ValueError, match="one dtype"):
        OptimState.for_params(p)


# ---- finite_diff_check ----


def test_finite_diff_linear_is_machine_precision():
    c = Tensor(np.array([1.0, -2.0, 3.0]))

    def f(params):
        return nm.sum_all(nm.mul(params[0], c))

    err = finite_diff_check(f, [Tensor(_rng(40).normal(size=3))])
    assert err < 1e-9


def test_finite_diff_zero_eps_rejected():
    with pytest.raises(ValueError):
        finite_diff_check(lambda p: nm.sum_all(p[0]), [Tensor(np.ones(2))], eps=0.0)


def test_finite_diff_rejects_nondeterministic_f():
    calls = [0.0]

    def f(params):
        calls[0] += 1.0
        return nm.scale(nm.sum_all(params[0]), calls[0])

    with pytest.raises(ValueError):
        finite_diff_check(f, [Tensor(np.ones(2))])


def test_finite_diff_requires_float64():
    x = Tensor(np.ones(2, dtype=np.float32))
    with pytest.raises(ValueError):
        finite_diff_check(lambda p: nm.sum_all(p[0]), [x])
