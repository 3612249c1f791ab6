"""Dense-tensor core with reverse-mode automatic differentiation.

Tensors wrap numpy arrays. Operations record backward rules on an explicit
Tape; replaying the tape in reverse accumulates gradients in a fixed order,
so identical inputs always produce bit-identical gradients. Every operation
verifies its output is finite and raises NonFiniteError otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


# ---------------------------------------------------------------------------
# Tensor and Tape
# ---------------------------------------------------------------------------


class Tensor:
    """Dense n-dimensional real array, optionally attached to a Tape."""

    __slots__ = ("data", "grad", "tape", "node_id")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor initialized with non-finite values")
        self.data = arr
        self.grad = None
        self.tape = None
        self.node_id = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        tracked = "" if self.tape is None else f", node_id={self.node_id}"
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{tracked})"


class Tape:
    """Topologically ordered record of operations for one backward pass."""

    __slots__ = ("_records", "_next_id", "_watched", "_sinks", "_consumed")

    def __init__(self):
        self._records = []
        self._next_id = 0
        self._watched = []
        self._sinks = {}
        self._consumed = False

    def watch(self, tensor: Tensor, into: np.ndarray | None = None) -> None:
        """Register a leaf tensor so backward() will populate its grad.

        backward() accumulates the gradient in `into`, an array of the
        tensor's shape and dtype (its view of a gradient arena), or in a
        zero buffer allocated here, and makes that array the tensor's grad.
        """
        if tensor.tape is self:
            return
        if tensor.tape is not None:
            raise ValueError("tensor is already attached to another tape")
        if into is None:
            into = np.zeros_like(tensor.data)
        elif into.shape != tensor.shape or into.dtype != tensor.dtype:
            raise ValueError(f"gradient buffer {into.shape} {into.dtype} does not "
                             f"fit tensor {tensor.shape} {tensor.dtype}")
        tensor.tape = self
        tensor.node_id = self._alloc()
        self._watched.append(tensor)
        self._sinks[tensor.node_id] = into

    def _alloc(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def __len__(self):
        return len(self._records)


def _check_finite(arr: np.ndarray, what: str = "values") -> np.ndarray:
    """Return arr, or raise NonFiniteError if it holds NaN or Inf."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"operation produced non-finite {what}")
    return arr


def _result(arr: np.ndarray, inputs: tuple, rule) -> Tensor:
    """Wrap an op result; record the backward rule if any input is tracked."""
    _check_finite(arr)
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.grad = None
    tape = None
    for t in inputs:
        tp = t.tape
        if tp is not None:
            if tape is None:
                tape = tp
            elif tape is not tp:
                raise ValueError("operation inputs belong to different tapes")
    if tape is None:
        out.tape = None
        out.node_id = None
    else:
        out.tape = tape
        out.node_id = tape._alloc()
        tape._records.append(
            (out.node_id, tuple(t.node_id for t in inputs), rule)
        )
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate grad on every watched leaf by replaying the tape in reverse.

    Rules may return views of what they hold, so a node's first gradient
    contribution is stored as it is and never written into. The second is
    added out of place, which gives the node an accumulator of its own, and
    later ones are added into that in place. A watched leaf accumulates in
    its gradient buffer from its first contribution. Every op keeps its
    inputs' dtype, so contributions carry their node's dtype and each sum is
    the same in place or out of place.

    Consumes the tape: each record is dropped once replayed, which frees the
    forward arrays its rule holds, and watched tensors are detached
    afterwards.
    """
    if loss.data.size != 1:
        raise ValueError("loss must be a scalar tensor")
    if tape._consumed:
        raise ValueError("tape has already been consumed by backward()")
    if loss.tape is not tape:
        raise ValueError("loss was not produced through this tape (detached graph)")
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    sinks = tape._sinks
    owned = set()  # nodes whose accumulator backward may add into
    records = tape._records
    while records:
        out_id, in_ids, rule = records.pop()
        g = grads.pop(out_id, None)
        if g is None:
            continue
        for nid, contrib in zip(in_ids, rule(g)):
            if nid is None or contrib is None:
                continue
            acc = grads.get(nid)
            if acc is None:
                into = sinks.get(nid)
                if into is not None:
                    np.copyto(into, contrib)
                    contrib = into
                    owned.add(nid)
                grads[nid] = contrib
            elif nid in owned:
                acc += contrib
            else:
                grads[nid] = acc + contrib
                owned.add(nid)
    for t in tape._watched:
        g, into = grads.get(t.node_id), sinks[t.node_id]
        if g is None:
            into.fill(0)
        elif g is not into:  # the loss itself is the leaf
            np.copyto(into, g)
        t.grad = into
        t.tape = None
        t.node_id = None
    tape._consumed = True


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to the shape of a broadcast input."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Elementwise and structural operations
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes(a, b)
    ash, bsh = a.data.shape, b.data.shape
    ta, tb = a.tape is not None, b.tape is not None

    def rule(g):
        return (_unbroadcast(g, ash) if ta else None,
                _unbroadcast(g, bsh) if tb else None)

    return _result(a.data + b.data, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes(a, b)
    ad, bd = a.data, b.data
    ta, tb = a.tape is not None, b.tape is not None

    def rule(g):
        return (_unbroadcast(g * bd, ad.shape) if ta else None,
                _unbroadcast(g * ad, bd.shape) if tb else None)

    return _result(ad * bd, (a, b), rule)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar (dtype-preserving)."""
    return _result(a.data * c, (a,), lambda g: (g * c,))


def _row_count(bits) -> int:
    """The rows each (..., N) row of boolean `bits` selects; bits that are
    not boolean, or whose rows select different counts, are rejected."""
    if not isinstance(bits, np.ndarray) or bits.dtype != bool or bits.ndim < 1:
        raise ValueError("row bits must be a boolean array of rank >= 1")
    counts = bits.sum(axis=-1)
    m = int(counts.max(initial=0))
    if (counts != m).any():
        raise ValueError(f"row bits select different counts "
                         f"{sorted(set(counts.tolist()))}")
    return m


def scatter_rows(values: Tensor, bits: np.ndarray) -> Tensor:
    """Place (..., M, K) rows at the positions that (..., N) boolean bits
    select, in ascending order, in a zero-filled (..., N, K) tensor; every
    row of bits selects M."""
    vd = values.data
    m, r = _row_count(bits), bits.ndim
    if vd.shape[:r] != bits.shape[:-1] + (m,):
        raise ValueError(f"values {vd.shape} do not fit bits {bits.shape} "
                         f"that select {m} rows each")
    rest = vd.shape[r:]
    out = np.zeros(bits.shape + rest, dtype=vd.dtype)
    out[bits] = vd.reshape((-1,) + rest)
    return _result(out, (values,), lambda g: (g[bits].reshape(vd.shape),))


def sum_all(a: Tensor) -> Tensor:
    sh = a.data.shape
    return _result(np.asarray(a.data.sum()), (a,), lambda g: (np.broadcast_to(g, sh),))


def mean_axis(a: Tensor, axis: int) -> Tensor:
    n = a.data.shape[axis]
    sh = a.data.shape

    def rule(g):
        return (np.broadcast_to(np.expand_dims(g / n, axis), sh),)

    return _result(a.data.mean(axis=axis), (a,), rule)


# Elements per pass of the blocked kernels (gelu, the softmax gradient,
# adamw_step). 2**16 float32 values are 256 KiB per operand, so the six
# arrays an AdamW chunk touches (1.5 MiB) stay in a 2 MiB L2; a whole-array
# pass over millions of elements spills its temporaries out of cache. Fixed
# by size, never by a timing, so every host runs the same passes.
BLOCK = 2**16

# Values per call, 2**18 of them (1 MiB of float32), up to which `attention`
# holds its softmax weights and `mlp` its pre-activation h for the backward:
# arrays that small cost little memory, and recomputing them would still
# cost a GEMM (and a softmax, or GELU). Larger ones are recomputed.
# Evaluation sizes its chunks so that one block's scores stay within it,
# and in cache (`training.eval_chunk_clips`). Fixed by size, so every host
# runs the same operations.
SCORE_BUDGET = 2**18


# ---------------------------------------------------------------------------
# Neural-network operations
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of (..., N, D) @ (D, E): the leading dims fold into the
    rows of one GEMM, and the weight gradient sums over them in one GEMM too.
    """
    _check_dtypes(a, b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim != 2:
        raise ValueError(f"matmul rank mismatch: {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ValueError(f"matmul inner dimension mismatch: {ad.shape} @ {bd.shape}")
    d, e = bd.shape
    a2 = ad.reshape(-1, d)

    def rule(g):
        g2 = g.reshape(-1, e)
        return (g2 @ bd.T).reshape(ad.shape), a2.T @ g2

    return _result((a2 @ bd).reshape(ad.shape[:-1] + (e,)), (a, b), rule)


def _linear_rows(x2: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x2 @ w + b for (rows, D) rows, the bias added in place."""
    out = x2 @ w
    out += b
    return out


def _linear_grads(g: np.ndarray, x2: np.ndarray, w: np.ndarray, gx: bool = True):
    """The input, weight and bias gradients of rows x2 @ w + b for the
    upstream gradient g of shape (..., E): the input gradient in g's leading
    shape, or None where it is not wanted."""
    g2 = g.reshape(-1, w.shape[1])
    gin = (g2 @ w.T).reshape(g.shape[:-1] + w.shape[:1]) if gx else None
    return gin, x2.T @ g2, np.add.reduce(g, axis=tuple(range(g.ndim - 1)))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for (..., D) rows, a (D, E) weight and an (E,) bias, as one
    record: the leading dims fold into the rows of one GEMM. A non-finite
    product stays non-finite after a finite bias, so one check covers both.
    The input gradient is computed only when a tape tracks `x`."""
    _check_dtypes(x, w)
    _check_dtypes(x, b)
    xd, wd = x.data, w.data
    if wd.ndim != 2 or xd.shape[-1:] != wd.shape[:1] or b.shape != wd.shape[1:]:
        raise ValueError(f"linear shape mismatch: {xd.shape} @ {wd.shape} + {b.shape}")
    x2 = xd.reshape(-1, wd.shape[0])
    out = _linear_rows(x2, wd, b.data)
    tx = x.tape is not None
    return _result(out.reshape(xd.shape[:-1] + wd.shape[1:]), (x, w, b),
                   lambda g: _linear_grads(g, x2, wd, tx))


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Stable softmax of a finite array along its last axis, written into
    the array: the max shift, the exp and the normalization each run in
    place. The row max is picked by argmax, which is faster than a max
    reduction and exact; where -0 and +0 tie for it, the shift moves only
    zeros, and exp maps either zero to 1."""
    x -= np.take_along_axis(x, np.argmax(x, -1, keepdims=True), -1)
    np.exp(x, out=x)
    x /= np.add.reduce(x, axis=-1, keepdims=True)
    return x


def _softmax_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The input gradient `out * (g - sum(out * g))` of a last-axis softmax
    with output `out`, written into `g`, a C-contiguous upstream gradient
    the caller owns. Both are walked in blocks of whole rows, at most BLOCK
    elements where a row fits, so the products for the sums take one block
    of scratch."""
    n = g.shape[-1]
    o2, g2 = out.reshape(-1, n), g.reshape(-1, n)
    rows = max(1, BLOCK // max(n, 1))
    prod = np.empty((min(rows, len(g2)), n), g.dtype)
    for lo in range(0, len(g2), rows):
        ob, gb = o2[lo : lo + rows], g2[lo : lo + rows]
        pb = prod[: len(gb)]
        np.multiply(ob, gb, out=pb)
        gb -= np.add.reduce(pb, axis=1, keepdims=True)
        gb *= ob
    return g


def softmax(x: Tensor) -> Tensor:
    """Stable softmax along the last axis; rows are nonnegative and sum to
    1. It runs attention's kernels on copies, so it writes neither into its
    input nor into the upstream gradient."""
    out = _softmax_rows(x.data.copy())
    return _result(out, (x,), lambda g: (_softmax_grad(out, g.copy()),))


def _row_mean(a: np.ndarray) -> np.ndarray:
    """The mean of the last axis, kept, as a reduce and a divide: the bits
    of ndarray.mean."""
    s = np.add.reduce(a, axis=-1, keepdims=True)
    s /= a.shape[-1]
    return s


def _ln_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """LayerNorm of the last axis, with 1e-6 added to the population
    variance: returns the output, xhat and inv. It runs the IEEE operations
    of xc = x - mean(x), inv = 1/sqrt(mean(xc*xc) + 1e-6), xhat = xc*inv,
    out = xhat*gamma + beta in their order, in two full-size buffers: xc
    becomes xhat, xc*xc the output."""
    xhat = x - _row_mean(x)
    out = xhat * xhat
    inv = _row_mean(out)
    inv += 1e-6
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    return _ln_affine(xhat, gamma, beta, out), xhat, inv


def _ln_affine(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """xhat*gamma + beta, in `out` if given: the forward's last two
    operations, by which a record that keeps xhat rebuilds its LayerNorm
    output bit for bit."""
    out = np.multiply(xhat, gamma, out=out)
    out += beta
    return out


def _ln_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                 gamma: np.ndarray):
    """The x, gamma and beta gradients of LayerNorm for the upstream
    gradient g, which is not written into: gx = inv*(gxh - mean(gxh) -
    xhat*mean(gxh*xhat)) with gxh = g*gamma, in the g*xhat buffer and the
    gxh buffer."""
    lead = tuple(range(g.ndim - 1))
    prod = g * xhat
    ggamma = np.add.reduce(prod, axis=lead)
    gbeta = np.add.reduce(g, axis=lead)
    gx = g * gamma
    m = _row_mean(gx)
    np.multiply(gx, xhat, out=prod)
    np.multiply(xhat, _row_mean(prod), out=prod)
    gx -= m
    gx -= prod
    gx *= inv
    return gx, ggamma, gbeta


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit population variance, with
    1e-6 added to the variance, then apply the gamma/beta affine. The
    `attention` and `mlp` records run the same kernels on their rows."""
    xd, gd, bd = x.data, gamma.data, beta.data
    d = xd.shape[-1]
    if gd.shape != (d,) or bd.shape != (d,):
        raise ValueError(f"layer_norm affine shape mismatch: x has D={d}, "
                         f"gamma {gd.shape}, beta {bd.shape}")
    out, xhat, inv = _ln_forward(xd, gd, bd)
    return _result(out, (x, gamma, beta), lambda g: _ln_backward(g, xhat, inv, gd))


def attention(x: Tensor, g: Tensor, b: Tensor, wq: Tensor, bq: Tensor,
              wk: Tensor, wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor,
              heads: int) -> Tensor:
    """Pre-norm multi-head self-attention over (..., N, E) rows, each leading
    index (one sample of a batch) attending only within itself, as one
    record: LayerNorm with gain g and shift b, the q, k and v projections,
    split into heads, scaled scores, row softmax, mix and merge, and the
    output projection; k has no bias, which the softmax would cancel. Values
    and gradients match the records `layer_norm`, `linear`, `matmul` and
    `linear` for q, k and v, the attention core and `linear` bit for bit:
    the backward sums the projections' input gradients as backward() summed
    them, (v + k) + q.

    Besides the output it checks what those records checked: the LayerNorm
    output, q, k, v, the scaled scores (the softmax maps a single -inf score
    to a weight of 0, which would hide it) and the mix.

    The record keeps LayerNorm's xhat and inv, not its output, which the
    backward rebuilds by the forward's own multiply and add; q, k, v and the
    mix; and the (..., heads, N, N) softmax weights only while they fit in
    SCORE_BUDGET values. Larger weights are dropped once the output is mixed,
    and the backward recomputes them by the forward's own GEMM, scale and
    softmax on the same operands, so they come back bit for bit, and frees
    them once the softmax gradient and the values' gradient are taken
    (selective recomputation, as in FlashAttention's backward: Dao et al.,
    arXiv 2205.14135).
    """
    params = (g, b, wq, bq, wk, wv, bv, wo, bo)
    for p in params:
        _check_dtypes(x, p)
    shape = x.shape
    dim = shape[-1] if shape else 0
    if (len(shape) < 2 or any(p.shape != (dim, dim) for p in (wq, wk, wv, wo))
            or any(p.shape != (dim,) for p in (g, b, bq, bv, bo))):
        raise ValueError(f"attention shape mismatch: (..., N, E) rows {shape}, "
                         f"weights {[p.shape for p in params]}")
    lead, n = shape[:-2], shape[-2]
    if heads < 1 or dim % heads:
        raise ValueError(f"heads {heads} do not divide width {dim}")
    dh = dim // heads
    r = len(lead)
    swap_heads = tuple(range(r)) + (r + 1, r, r + 2)  # its own inverse

    def split(t):  # (..., N, E) -> (..., heads, N, dh), a view
        return t.reshape(lead + (n, heads, dh)).transpose(swap_heads)

    def merge(t):  # (..., heads, N, dh) -> (..., N, E)
        return t.transpose(swap_heads).reshape(shape)

    gd, bd = g.data, b.data
    wqd, wkd, wvd, wod = wq.data, wk.data, wv.data, wo.data
    ln, xhat, inv = _ln_forward(x.data, gd, bd)
    rows = _check_finite(ln).reshape(-1, dim)
    qh, kh, vh = (split(_check_finite(t).reshape(shape)) for t in (
        _linear_rows(rows, wqd, bq.data), rows @ wkd, _linear_rows(rows, wvd, bv.data)))
    del ln, rows
    c = 1.0 / math.sqrt(dh)

    def scaled_scores():
        s = qh @ kh.swapaxes(-1, -2)
        s *= c
        return s

    probs = _check_finite(scaled_scores(), "scores")
    _softmax_rows(probs)  # in place: the scores become the weights
    mixed = _check_finite(merge(probs @ vh)).reshape(-1, dim)
    held = probs if probs.size <= SCORE_BUDGET else None
    del probs
    out = _linear_rows(mixed, wod, bo.data).reshape(shape)

    def rule(gout):
        gm, gwo, gbo = _linear_grads(gout, mixed, wod)
        gm = split(gm)
        w = held if held is not None else _softmax_rows(scaled_scores())
        gs = _softmax_grad(w, gm @ vh.swapaxes(-1, -2))
        gv = merge(w.swapaxes(-1, -2) @ gm)
        del w
        gs *= c
        gq = merge(gs @ kh)
        # (q^T gs)^T, not gs^T q: the GEMM the unfused graph ran for the keys
        gk = merge((qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2))
        del gs
        rows = _ln_affine(xhat, gd, bd).reshape(-1, dim)
        gln, gwv, gbv = _linear_grads(gv, rows, wvd)
        gx, gwk, _ = _linear_grads(gk, rows, wkd)
        gln = gln + gx
        gx, gwq, gbq = _linear_grads(gq, rows, wqd)
        gln += gx
        del gq, gk, gv, gx, rows
        return (*_ln_backward(gln, xhat, inv, gd),
                gwq, gbq, gwk, gwv, gbv, gwo, gbo)

    return _result(out, (x,) + params, rule)


_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715


def _gelu_tanh(x: np.ndarray, t: np.ndarray) -> None:
    """t = tanh(u), u = k*(x + c*((x*x)*x)), for one block x, u taking t."""
    np.multiply(x, x, out=t)
    t *= x
    t *= _GELU_C
    t += x
    t *= _GELU_K
    np.tanh(t, out=t)


def _gelu_grad(x: np.ndarray, t: np.ndarray, g: np.ndarray, a: np.ndarray,
               b: np.ndarray) -> None:
    """Multiply g, one block of the upstream gradient, in place by GELU's
    derivative `0.5*(1 + t) + ((0.5*x)*(1 - t*t))*(k*(1 + ((3c)*x)*x))` at x,
    given t = tanh(u); a and b are block scratch. IEEE products and sums
    commute, so the factors may be formed in any operand order."""
    np.multiply(x, 0.5, out=a)  # (0.5*x)*(1 - t*t)
    np.multiply(t, t, out=b)
    np.subtract(1.0, b, out=b)
    a *= b
    np.multiply(x, 3.0 * _GELU_C, out=b)  # *k*(1 + ((3c)*x)*x)
    b *= x
    b += 1.0
    b *= _GELU_K
    a *= b
    np.add(t, 1.0, out=b)  # + 0.5*(1 + t)
    b *= 0.5
    a += b
    g *= a


def _gelu_forward(x: np.ndarray) -> np.ndarray:
    """GELU of x, `(0.5*x)*(1 + tanh(u))`, as a new C-ordered array, written
    BLOCK elements at a time with each block's temporaries in block-sized
    scratch rows."""
    xf = x.reshape(-1)
    out = np.empty(x.shape, x.dtype)
    of = out.reshape(-1)
    t, a = np.empty((2, min(BLOCK, xf.size)), x.dtype)
    for lo in range(0, xf.size, BLOCK):
        blk = slice(lo, lo + BLOCK)
        n = xf[blk].size
        _gelu_tanh(xf[blk], t[:n])
        np.multiply(xf[blk], 0.5, out=of[blk])
        np.add(t[:n], 1.0, out=a[:n])
        of[blk] *= a[:n]
    return out


def _gelu_backward(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Multiply g, a C-contiguous upstream gradient of x's shape that the
    caller owns, in place by GELU's derivative at x, recomputing tanh(u)
    BLOCK elements at a time; returns g."""
    xf, gf = x.reshape(-1), g.reshape(-1)
    t, a, b = np.empty((3, min(BLOCK, xf.size)), x.dtype)
    for lo in range(0, xf.size, BLOCK):
        blk = slice(lo, lo + BLOCK)
        n = xf[blk].size
        _gelu_tanh(xf[blk], t[:n])
        _gelu_grad(xf[blk], t[:n], gf[blk], a[:n], b[:n])
    return g


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU: 0.5*x*(1 + tanh(k*(x + 0.044715*x^3))).

    It runs `mlp`'s blocked walkers, whose every element goes through the
    IEEE operations of the whole-array expressions `u = k*(x + c*((x*x)*x))`,
    `(0.5*x)*(1 + tanh(u))` forward and
    `g*(0.5*(1 + t) + ((0.5*x)*(1 - t*t))*(k*(1 + ((3c)*x)*x)))` backward,
    in their order, so values and gradients are bit-identical to them. Only
    `x` is kept; the backward recomputes `t = tanh(u)` in a copy of `g`.
    """
    xd = x.data
    return _result(_gelu_forward(xd), (x,), lambda g: (
        _gelu_backward(xd, np.array(g, xd.dtype, order="C")),))


def mlp(x: Tensor, g: Tensor, b: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
        b2: Tensor) -> Tensor:
    """gelu(LN(x) @ w1 + b1) @ w2 + b2 for (..., D) rows, LayerNorm with gain
    g and shift b, a (D, H) and an (H, E) weight, as one record: the kernels
    of `layer_norm`, `linear`, `gelu`, `linear`, so values and gradients
    match those four records bit for bit. Besides the output it checks the
    LayerNorm output and the pre-activation h, as they did.

    The record keeps LayerNorm's xhat and inv, not its output, which the
    backward rebuilds by the forward's own multiply and add, and keeps h
    only while it fits in SCORE_BUDGET values; a larger h is recomputed
    from the rebuilt rows by the forward's own GEMM and bias add. It keeps
    neither tanh(u) nor the GELU output: the backward recomputes the output
    block by block for the second weight's gradient, frees it, and runs the
    GELU gradient in place in the gradient of the output, recomputing
    tanh(u) per block. So at most one (rows, H) array lives beside h.
    """
    params = (g, b, w1, b1, w2, b2)
    for p in params:
        _check_dtypes(x, p)
    xd, gd, bd, w1d, w2d = x.data, g.data, b.data, w1.data, w2.data
    d = xd.shape[-1] if xd.ndim else 0
    if (w1d.ndim != 2 or w2d.ndim != 2 or w1d.shape[0] != d
            or g.shape != (d,) or b.shape != (d,)
            or b1.shape != w1d.shape[1:] or w2d.shape[:1] != w1d.shape[1:]
            or b2.shape != w2d.shape[1:]):
        raise ValueError(f"mlp shape mismatch: LN({xd.shape}; {g.shape}, "
                         f"{b.shape}) @ {w1d.shape} + {b1.shape} @ {w2d.shape} "
                         f"+ {b2.shape}")
    hid, e = w2d.shape
    ln, xhat, inv = _ln_forward(xd, gd, bd)
    h = _linear_rows(_check_finite(ln).reshape(-1, d), w1d, b1.data)
    del ln
    # GELU maps finite values to finite ones (an overflowing x*x*x saturates
    # tanh) and inf or NaN to inf or NaN, so this check covers its output too
    _check_finite(h, "pre-activation")
    out = _linear_rows(_gelu_forward(h), w2d, b2.data)
    held = h if h.size <= SCORE_BUDGET else None
    lead = tuple(range(xd.ndim - 1))

    def rule(gout):
        rows = _ln_affine(xhat, gd, bd).reshape(-1, d)
        h = held if held is not None else _linear_rows(rows, w1d, b1.data)
        g2 = gout.reshape(-1, e)
        gw2 = _gelu_forward(h).T @ g2
        ga = _gelu_backward(h, g2 @ w2d.T)
        del h
        gln, gw1, gb1 = _linear_grads(ga.reshape(xd.shape[:-1] + (hid,)), rows, w1d)
        del ga, rows
        return (*_ln_backward(gln, xhat, inv, gd),
                gw1, gb1, gw2, np.add.reduce(gout, axis=lead))

    return _result(out.reshape(xd.shape[:-1] + (e,)), (x,) + params, rule)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


LOSS_KINDS = ("mse", "l1", "smooth_l1")


def masked_penalty(pred: Tensor, target: np.ndarray, bits: np.ndarray,
                   kind: str) -> Tensor:
    """Mean `kind` penalty ("mse", "l1" or "smooth_l1", which is Huber with
    delta 1) of the (..., N, K) prediction rows that (..., N) boolean bits
    select, in ascending order, against (..., M, K) targets, as one record;
    every row of bits selects the same M >= 1 rows. It runs the float
    operations of gathering, subtracting, penalizing and averaging as
    separate ops, in that order, so value and gradient match them bit for
    bit."""
    if kind not in LOSS_KINDS:
        raise ValueError(f"loss kind must be one of {LOSS_KINDS}, got {kind!r}")
    pd = pred.data
    m, r = _row_count(bits), bits.ndim
    if m == 0:
        raise ValueError("loss undefined with zero masked rows")
    if pd.shape[:r] != bits.shape:
        raise ValueError(f"bits {bits.shape} do not fit the rows of {pd.shape}")
    rest = pd.shape[r:]
    rows = bits.shape[:-1] + (m,)
    if target.shape != rows + rest:
        raise ValueError(f"target {target.shape} does not pair with "
                         f"{rows} masked rows of shape {rest}")
    diff = pd[bits].reshape(rows + rest) - np.asarray(target, dtype=pd.dtype)
    if kind == "mse":
        pen = diff * diff
    elif kind == "l1":
        pen = np.abs(diff)
    else:
        absx = np.abs(diff)
        pen = np.where(absx <= 1.0, 0.5 * diff * diff, absx - 0.5)
    n = pen.size

    def rule(g):
        g = g / n
        if kind == "mse":  # the two operands of diff * diff, summed
            gd = g * diff
            gd += gd
        elif kind == "l1":
            gd = g * np.sign(diff)
        else:
            gd = g * np.clip(diff, -1.0, 1.0)
        buf = np.zeros_like(pd)
        buf[bits] = gd.reshape((-1,) + rest)
        return (buf,)

    return _result(np.asarray(pen.sum() / n), (pred,), rule)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean stable cross-entropy of (B, C) logit rows against B integer
    labels, as one record; one int label pairs with a single (1, C) row.

    It runs the float operations of the graph it replaces in the same order,
    so values and gradients match that graph bit for bit: a row's
    log-sum-exp is the log of the mean of its exponentials times C, and the
    label logits are summed through a one-hot product.
    """
    xd = logits.data
    b, c = xd.shape
    labels = np.atleast_1d(np.asarray(labels, dtype=np.intp))
    if labels.shape != (b,):
        raise ValueError(f"{labels.size} labels for {b} logit rows")
    if ((labels < 0) | (labels >= c)).any():
        raise ValueError(f"labels {labels.tolist()} out of range for {c} classes")
    shifted = xd - xd.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    scaled = e.mean(axis=1) * float(c)
    onehot = np.zeros((b, c), dtype=xd.dtype)
    onehot[np.arange(b), labels] = 1.0
    out = (np.log(scaled).sum() - (shifted * onehot).sum()) * (1.0 / b)

    def rule(g):
        g = g * (1.0 / b)
        ge = np.expand_dims(g / scaled * float(c) / c, 1) * e
        return (-g * onehot + ge,)

    return _result(np.asarray(out), (logits,), rule)


def _check_dtypes(a: Tensor, b: Tensor) -> None:
    if a.data.dtype != b.data.dtype:
        raise ValueError(f"mixed dtypes {a.data.dtype} and {b.data.dtype}; "
                         "cast inputs to a common precision first")


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class OptimState:
    """AdamW state over one flat parameter arena.

    The parameters, their gradients and the two moments are each laid out
    in one contiguous buffer (`flat_param`, `flat_grad`, `flat_m`,
    `flat_v`), tensor after tensor in the parameter dict's order. `param`,
    `grad`, `m` and `v` map each name to its view into those buffers, and
    `t` counts the updates. Each parameter tensor's `data` is its `param`
    view: load new values into it in place, since a rebound tensor would
    leave the arena and stop being trained.
    """

    flat_param: np.ndarray
    flat_grad: np.ndarray
    flat_m: np.ndarray
    flat_v: np.ndarray
    param: dict[str, np.ndarray]
    grad: dict[str, np.ndarray]
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    scratch: np.ndarray  # two chunk-sized rows for the update's temporaries
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, Tensor]) -> "OptimState":
        """Move every tensor of `params` into a fresh arena, with zero
        gradients and moments. All tensors must share one dtype."""
        dtypes = {p.dtype for p in params.values()}
        if len(dtypes) > 1:
            raise ValueError(f"an arena holds one dtype; the parameters mix "
                             f"{sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float32)
        total = sum(p.size for p in params.values())
        flat = (np.empty(total, dtype), np.zeros(total, dtype),
                np.zeros(total, dtype), np.zeros(total, dtype))
        views = ({}, {}, {}, {})
        off = 0
        for name, p in params.items():
            for buf, named in zip(flat, views):
                named[name] = buf[off : off + p.size].reshape(p.shape)
            off += p.size
            views[0][name][...] = p.data
            p.data = views[0][name]
        scratch = np.empty((2, min(BLOCK, total)), dtype)
        return cls(*flat, *views, scratch=scratch)

    def check_params(self, params: dict[str, Tensor]) -> None:
        """Reject `params` unless they are the tensors this state was built
        for, each still on its arena view."""
        if params.keys() != self.param.keys():
            raise ValueError("params are not the tensors this optimizer state holds")
        for name, p in params.items():
            if p.data is not self.param[name]:
                raise ValueError(f"parameter {name!r} is not its arena view; load "
                                 f"values into it in place instead of rebinding it")


def adamw_step(
    params: dict[str, Tensor],
    state: OptimState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.95,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> None:
    """One bias-corrected AdamW update, in place, as one pass over the arena.

    `params` are the tensors `state` was built for, each still on its arena
    view, and their gradients are read from the arena (backward() writes
    the gradients of leaves watched `into` their views there). Decoupled
    weight decay shrinks the parameters before the Adam delta is applied.

    The pass walks the flat buffers BLOCK elements at a time and
    writes every temporary into the state's scratch rows, so a step
    allocates nothing. AdamW is elementwise, and each element goes through
    the same float operations in the same order as in a tensor-by-tensor
    update, so the result is bit-identical to one and bit-deterministic.
    """
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ValueError("betas must lie in [0, 1)")
    state.check_params(params)
    state.t += 1
    t = state.t
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    flat_p, flat_g, flat_m, flat_v = (state.flat_param, state.flat_grad,
                                      state.flat_m, state.flat_v)
    for lo in range(0, flat_p.size, BLOCK):
        p = flat_p[lo : lo + BLOCK]
        g = flat_g[lo : lo + BLOCK]
        m = flat_m[lo : lo + BLOCK]
        v = flat_v[lo : lo + BLOCK]
        a, b = state.scratch[:, : p.size]
        if weight_decay != 0.0:
            p *= 1.0 - lr * weight_decay
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=a)
        m += a
        v *= beta2
        np.multiply(g, g, out=a)
        a *= 1.0 - beta2
        v += a
        # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(m, c1, out=a)
        a *= lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        p -= a


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------


def finite_diff_check(f, params: list[Tensor], eps: float = 1e-5) -> float:
    """Max relative error between backward() gradients and central differences.

    `f(params)` must return a scalar Tensor and be deterministic; parameters
    must be float64. The error metric per coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if eps <= 0:
        raise ValueError("finite-difference step eps must be positive")
    for p in params:
        if p.data.dtype != np.float64:
            raise ValueError("finite_diff_check requires float64 parameters")
    v1 = float(f(params).data)
    v2 = float(f(params).data)
    if v1 != v2:
        raise ValueError("f is not deterministic; gradient check is meaningless")

    tape = Tape()
    for p in params:
        tape.watch(p)
    backward(f(params), tape)
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f(params).data)
            flat[i] = orig - eps
            fm = float(f(params).data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            a = gflat[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if err > worst:
                worst = err
    return worst
