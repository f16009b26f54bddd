"""Dense tensors with reverse-mode automatic differentiation.

Just enough of an array-autograd layer to express a small transformer
encoder and its training step on top of numpy. Operations executed while
a Tape is active record one backward closure each onto it, a function
of the op output's gradient; Tape.backward replays them in reverse
exactly once, freeing each op's saved buffers and output gradient as it
goes, so only leaf tensors hold .grad afterwards.

One rule governs gradient buffers: a backward closure hands
accumulate_grad a writable buffer that no live tensor's .grad overlaps.
accumulate_grad keeps the first contribution by reference and adds
later ones into it in place, so accumulating micro-batches allocates
no new parameter-sized buffer.

Passes over an array much larger than the per-core cache stream
through it in blocks of about STREAM_BLOCK elements: parameter-sized
passes walk a flat view, and activation ops (gelu, glu_gelu,
layer_norm, attend) walk whole rows, one sequence at a time for
attention. Each block runs the op's whole ufunc chain into a
preallocated output through block-sized scratch, so intermediates stay
in cache instead of making a new array-sized temporary per step of the
chain. Every element sees the same ufuncs in the same order as the
whole-array form, and row reductions see the same rows, so the bytes do
not depend on the blocking.

Training runs in float32. The finite-difference oracles in the tests run
the same code at float64; ops never mix dtypes silently.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

from .errors import ContractError

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Elements per block when a pass walks a parameter-sized flat array
# (initialization here, the Adam update in trainer.py) or the rows of an
# activation: a few float32 buffers of this length stay in the per-core
# cache, where a temporary the size of the whole array would stream
# through main memory. Much smaller blocks pay numpy's per-call cost
# once per ufunc of a long chain.
STREAM_BLOCK = 1 << 16

# Eigen's and XLA's float32 erf(z): an odd degree-13 numerator over an
# even degree-8 denominator, with z clamped at +-4, where erf rounds to
# +-1 in float32. Coefficients run from the highest power down.
_ERF_NUM = np.array([
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02], np.float32)
_ERF_DEN = np.array([
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02], np.float32)
_F32_SQRT_HALF = np.float32(math.sqrt(0.5))

# Non-finite op outputs raise FloatingPointError immediately, naming the
# op, instead of propagating NaN. The check is on by default for direct
# use and finetuning. Pretraining turns it off for its steps, which
# check the loss and gradient norm once per step instead, and turns it
# back on to replay a failed step and name the op; oracles may disable
# it around intentional overflow probes.
_finite_checks = True


def set_finite_checks(enabled: bool) -> bool:
    """Toggle the non-finite output guard, returning the previous value."""
    global _finite_checks
    previous = _finite_checks
    _finite_checks = bool(enabled)
    return previous


def _guard(arr: np.ndarray, op: str) -> np.ndarray:
    # One float64 pass: any nan/inf makes the sum non-finite, and
    # accumulating float32 data in float64 cannot overflow on its own.
    if _finite_checks and not math.isfinite(float(np.sum(arr, dtype=np.float64))):
        raise FloatingPointError(f"non-finite values produced by {op}")
    return arr


class Tensor:
    """n-dimensional array plus optional gradient buffer.

    Data is immutable by convention once an op has consumed it; the
    optimizer mutates parameter .data in place between tapes, which is
    the one sanctioned exception.
    """

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        # g is writable and overlaps no other live .grad (the module rule).
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError("item() on non-scalar tensor")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}{tag})"

    def __mul__(self, other):
        return mul(self, other)


class Tape:
    """Ordered record of differentiable ops for one forward pass.

    Use as a context manager; ops run outside any active tape are pure
    forward computations and record nothing.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack.pop()
        if popped is not self:
            raise ContractError("tape stack corrupted")

    def record(self, out: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        self._records.append((out, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss)=1 and replay records newest-first.

        Each record is dropped once replayed, and so is its output's
        gradient: after backward only leaf tensors (parameters and
        inputs, which no op produced) hold .grad.
        """
        if self._consumed:
            raise ContractError("tape already consumed by a previous backward")
        if loss.data.size != 1:
            raise ContractError("backward requires a scalar loss")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        # Records are in creation order, so when an output's record comes
        # up every consumer of it has already added its gradient. Popping
        # frees the closure's saved activations, and the output's gradient
        # is dropped as soon as the closure has passed it on.
        records = self._records
        while records:
            out, fn = records.pop()
            if out.grad is not None:
                fn(out.grad)
                out.zero_grad()

    def __len__(self) -> int:
        return len(self._records)


_tape_stack: list[Tape] = []


def _active_tape() -> Tape | None:
    return _tape_stack[-1] if _tape_stack else None


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _check_dtypes(op: str, *ts: Tensor) -> None:
    d0 = ts[0].data.dtype
    for t in ts[1:]:
        if t.data.dtype != d0:
            raise ContractError(f"{op}: mixed dtypes {d0} and {t.data.dtype}")


def _make(op: str, data: np.ndarray, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    """Wrap an op result; record backward_fn(out.grad) if a tape is live."""
    _guard(data, op)
    out = Tensor(data)
    tape = _active_tape()
    needs = any(t.requires_grad for t in inputs)
    if tape is not None and needs:
        out.requires_grad = True
        tape.record(out, backward_fn)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _as_rows(a: np.ndarray) -> np.ndarray:
    """a as a 2-D (rows, last axis) array, a view when a is contiguous."""
    return a.reshape(-1, a.shape[-1] if a.ndim else 1)


def row_blocks(rows: int, row_size: int) -> tuple[int, list[slice]]:
    """Slices of `rows` rows of `row_size` elements, about STREAM_BLOCK
    elements and at least one row each, and the rows in a full block
    (what a block's scratch buffer holds)."""
    step = max(1, min(rows, STREAM_BLOCK // max(row_size, 1)))
    return step, [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def add(a: Tensor, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _as_tensor(a, b.dtype)
    b = _as_tensor(b, a.dtype)
    _check_dtypes("add", a, b)

    def bwd(g):
        ga = None
        if a.requires_grad:
            ga = _unbroadcast(g, a.shape)
            a.accumulate_grad(ga)
        if b.requires_grad:
            gb = _unbroadcast(g, b.shape)
            if gb is ga:
                # Both sides got g itself, and each will add into its
                # .grad in place: the second gets a copy.
                gb = gb.copy()
            b.accumulate_grad(gb)

    return _make("add", a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _as_tensor(a, b.dtype)
    b = _as_tensor(b, a.dtype)
    _check_dtypes("mul", a, b)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return _make("mul", a.data * b.data, (a, b), bwd)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b (+ bias) for 2-D operands.

    Both products take the same bias rule: the optional bias is added in
    place into the fresh product, and its gradient is summed in the
    product's own backward, so a biased projection records one op and
    keeps no pre-bias buffer.
    """
    inputs = (a, b) if bias is None else (a, b, bias)
    _check_dtypes("matmul", *inputs)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ContractError("matmul expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ContractError(f"matmul inner dims {a.shape} @ {b.shape}")
    data = a.data @ b.data
    if bias is not None:
        data += bias.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(_unbroadcast(g, bias.shape))

    return _make("matmul", data, inputs, bwd)


def matmul_t(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b.T (+ bias) for 2-D operands, without materializing the transpose.

    The decoder shares storage with the (V, d) embedding table, so the
    tied head is a matmul against its transpose. The bias follows
    matmul's rule, so the head holds one logits buffer instead of two.
    Callers that decode only some rows gather them first (gather_rows),
    so no logits the loss would drop are computed.
    """
    inputs = (a, b) if bias is None else (a, b, bias)
    _check_dtypes("matmul_t", *inputs)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ContractError("matmul_t expects 2-D operands")
    if a.shape[1] != b.shape[1]:
        raise ContractError(f"matmul_t inner dims {a.shape} @ {b.shape}^T")
    data = a.data @ b.data.T
    if bias is not None:
        data += bias.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.data)
        if b.requires_grad:
            b.accumulate_grad(g.T @ a.data)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(_unbroadcast(g, bias.shape))

    return _make("matmul_t", data, inputs, bwd)


def reshape(a: Tensor, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])

    def bwd(g):
        a.accumulate_grad(g.reshape(a.shape))

    return _make("reshape", a.data.reshape(shape), (a,), bwd)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows of a 2-D tensor: out[i] = a[idx[i]].

    Serves embedding lookup and the masked-row selection before the
    decoder. Repeated rows sum their gradients.
    """
    idx = np.asarray(idx)
    if a.data.ndim != 2:
        raise ContractError("gather_rows expects a 2-D tensor")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError("gather_rows index out of range")

    def bwd(g):
        # Sum each looked-up row's contributions in lookup order, as a
        # dense scatter would, then add only those rows into the table's
        # gradient (e.g. the tied decoder's), zeros when it has none.
        # add.at over flat element indices takes numpy's fast 1-D loop,
        # several times faster than the same sums over 2-D rows.
        d = a.shape[1]
        uniq, inv = np.unique(idx.ravel(), return_inverse=True)
        rows = np.zeros((uniq.size, d), g.dtype)
        np.add.at(rows.reshape(-1), (inv[:, None] * d + np.arange(d)).ravel(), g.reshape(-1))
        if a.grad is None:
            a.accumulate_grad(np.zeros(a.shape, g.dtype))
        a.grad[uniq] += rows

    return _make("gather_rows", a.data[idx], (a,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to mean 0 / population variance 1, then
    apply elementwise gain and bias.

    Mean, variance, x-hat and output are computed one row block at a
    time, and so is the input gradient; the gain and bias gradients are
    whole-array sums over rows.
    """
    if eps <= 0:
        raise ContractError("layer_norm eps must be positive")
    _check_dtypes("layer_norm", x, gain, bias)
    xs = _as_rows(x.data)
    n, d = xs.shape
    eps = np.asarray(eps, dtype=x.dtype)
    step, blocks = row_blocks(n, d)
    xhat, out = np.empty((n, d), x.dtype), np.empty((n, d), x.dtype)
    inv = np.empty((n, 1), x.dtype)
    square = np.empty((step, d), x.dtype)
    for b in blocks:
        xb, cb, ib = xs[b], xhat[b], inv[b]
        np.mean(xb, axis=-1, keepdims=True, out=ib)
        np.subtract(xb, ib, out=cb)
        sq = np.multiply(cb, cb, out=square[:len(cb)])
        np.mean(sq, axis=-1, keepdims=True, out=ib)
        ib += eps
        np.sqrt(ib, out=ib)
        np.divide(1.0, ib, out=ib)
        cb *= ib
        np.multiply(cb, gain.data, out=out[b])
        out[b] += bias.data

    def bwd(g):
        gs = g.reshape(n, d)
        dx = np.empty((n, d), x.dtype)
        if gain.requires_grad:
            gain.accumulate_grad(np.multiply(gs, xhat, out=dx).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate_grad(gs.sum(axis=0))
        if not x.requires_grad:
            return
        gx, prod = np.empty((step, d), x.dtype), np.empty((step, d), x.dtype)
        m1, m2 = np.empty((step, 1), x.dtype), np.empty((step, 1), x.dtype)
        for b in blocks:
            k = b.stop - b.start
            gxb = np.multiply(gs[b], gain.data, out=gx[:k])
            np.mean(gxb, axis=-1, keepdims=True, out=m1[:k])
            pb = np.multiply(gxb, xhat[b], out=prod[:k])
            np.mean(pb, axis=-1, keepdims=True, out=m2[:k])
            gxb -= m1[:k]
            np.multiply(xhat[b], m2[:k], out=pb)
            gxb -= pb
            np.multiply(inv[b], gxb, out=dx[b])
        x.accumulate_grad(dx.reshape(x.shape))

    return _make("layer_norm", out.reshape(x.shape), (x, gain, bias), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    y = np.exp(shifted, out=shifted)
    y /= y.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        x.accumulate_grad(y * (g - inner))

    return _make("softmax", y, (x,), bwd)


def _normal_cdf(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Phi(x) into out. float32 takes (1 + erf(x / sqrt 2)) / 2 through
    the rational erf above, in float32 throughout, using three scratch
    buffers of out's shape; any other dtype takes scipy's ndtr."""
    if x.dtype != np.float32:
        ndtr(x, out=out)
        return
    z, z2, den = scratch
    np.multiply(x, _F32_SQRT_HALF, out=z)
    np.clip(z, np.float32(-4.0), np.float32(4.0), out=z)
    np.multiply(z, z, out=z2)
    np.multiply(z2, _ERF_NUM[0], out=out)
    for c in _ERF_NUM[1:-1]:
        out += c
        out *= z2
    out += _ERF_NUM[-1]
    np.multiply(z2, _ERF_DEN[0], out=den)
    for c in _ERF_DEN[1:-1]:
        den += c
        den *= z2
    den += _ERF_DEN[-1]
    out *= z
    out /= den
    out += np.float32(1.0)
    out *= np.float32(0.5)


def _gelu_grad(x: np.ndarray, phi_cdf: np.ndarray, g: np.ndarray, out: np.ndarray) -> None:
    """g * d gelu(x)/dx into out, given phi_cdf = Phi(x) from the forward pass."""
    np.multiply(x, x, out=out)
    out *= -0.5
    np.exp(out, out=out)
    out /= np.asarray(_SQRT_2PI, dtype=x.dtype)
    out *= x
    out += phi_cdf
    out *= g


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x) with the exact Gaussian CDF (erf form), by row blocks;
    backward keeps Phi."""
    xs = _as_rows(x.data)
    step, blocks = row_blocks(*xs.shape)
    phi_cdf, out = np.empty(xs.shape, x.dtype), np.empty(xs.shape, x.dtype)
    scratch = np.empty((3, step, xs.shape[1]), x.dtype)
    for b in blocks:
        _normal_cdf(xs[b], phi_cdf[b], scratch[:, :b.stop - b.start])
        np.multiply(xs[b], phi_cdf[b], out=out[b])

    def bwd(g):
        gs, dx = g.reshape(xs.shape), np.empty(xs.shape, x.dtype)
        for b in blocks:
            _gelu_grad(xs[b], phi_cdf[b], gs[b], dx[b])
        x.accumulate_grad(dx.reshape(x.shape))

    return _make("gelu", out.reshape(x.shape), (x,), bwd)


def glu_gelu(h: Tensor) -> Tensor:
    """Gated linear unit value * gelu(gate) over the two halves of the
    last axis, by row blocks; backward keeps Phi(gate) and recomputes
    gelu(gate) from it."""
    hs = _as_rows(h.data)
    half = hs.shape[1] // 2
    value, gate = hs[:, :half], hs[:, half:]
    step, blocks = row_blocks(len(hs), half)
    phi_cdf, out = np.empty(value.shape, h.dtype), np.empty(value.shape, h.dtype)
    scratch = np.empty((3, step, half), h.dtype)
    for b in blocks:
        _normal_cdf(gate[b], phi_cdf[b], scratch[:, :b.stop - b.start])
        ob = np.multiply(gate[b], phi_cdf[b], out=out[b])
        ob *= value[b]

    def bwd(g):
        gs, dh = g.reshape(out.shape), np.empty(hs.shape, h.dtype)
        dvalue, dgate = dh[:, :half], dh[:, half:]
        gv = np.empty((step, half), h.dtype)
        for b in blocks:
            dv = np.multiply(gate[b], phi_cdf[b], out=dvalue[b])
            dv *= gs[b]
            gvb = np.multiply(gs[b], value[b], out=gv[:b.stop - b.start])
            _gelu_grad(gate[b], phi_cdf[b], gvb, dgate[b])
        h.accumulate_grad(dh.reshape(h.shape))

    return _make("glu_gelu", out.reshape(h.shape[:-1] + (half,)), (h,), bwd)


def _rotate_half(a: np.ndarray) -> np.ndarray:
    first, second = np.split(a, 2, axis=-1)
    return np.concatenate([-second, first], axis=-1)


def attend(q: Tensor, k: Tensor, v: Tensor, seq_len: int, heads: int,
           key_bias: np.ndarray | None = None,
           rot: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """Multi-head softmax(q k^T / sqrt(dh) + key_bias) v over (B*S, d) projections.

    rot, a pair of (cos, sin) tables broadcast against the contiguous
    (B, H, S, dh) heads, first rotates q and k by position:
    t*cos + rotate_half(t)*sin, where rotate_half maps the halves
    (t1, t2) to (-t2, t1). key_bias broadcasts against the (B, H, S, S)
    scores, which are scaled, biased and normalized in place.

    Both passes walk whole sequences in row blocks (one sequence at a
    time at model shapes), building each block's per-head q, k^T and v
    from the projections, so backward keeps only the probabilities.
    """
    _check_dtypes("attend", q, k, v)
    if q.data.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise ContractError("attend expects equal 2-D (B*S, d) operands")
    rows, d = q.shape
    if rows % seq_len or d % heads:
        raise ContractError(f"attend cannot split {q.shape} into seq_len {seq_len}, {heads} heads")
    B, S, H, dh = rows // seq_len, seq_len, heads, d // heads
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=q.dtype)
    if rot is not None:
        cos, sin = (np.asarray(t, dtype=q.dtype) for t in rot)
    if key_bias is not None:
        key_bias = np.broadcast_to(np.asarray(key_bias, dtype=q.dtype), (B, H, S, S))
    step, blocks = row_blocks(B, H * S * S)

    def heads_of(t: Tensor, b: slice) -> np.ndarray:
        """Sequences b of t as contiguous (n, H, S, dh) heads."""
        t = t.data[b.start * S:b.stop * S]
        return np.ascontiguousarray(t.reshape(-1, S, H, dh).transpose(0, 2, 1, 3))

    def rotate(h: np.ndarray) -> np.ndarray:
        return h if rot is None else h * cos + _rotate_half(h) * sin

    def unrotate(g: np.ndarray) -> np.ndarray:
        return g if rot is None else g * cos - _rotate_half(g * sin)

    def keys_t(b: slice) -> np.ndarray:
        return np.ascontiguousarray(rotate(heads_of(k, b)).transpose(0, 1, 3, 2))

    def merged(a: np.ndarray) -> np.ndarray:
        """(B, H, S, dh) heads view of a (B*S, d) array."""
        return a.reshape(B, S, H, dh).transpose(0, 2, 1, 3)

    probs = np.empty((B, H, S, S), q.dtype)
    out = np.empty((rows, d), q.dtype)
    for b in blocks:
        p = np.matmul(rotate(heads_of(q, b)), keys_t(b), out=probs[b])
        p *= scale
        if key_bias is not None:
            p += key_bias[b]
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        merged(out)[b] = p @ heads_of(v, b)

    def bwd(g):
        g = merged(g)
        dq, dk, dv = (np.empty((rows, d), q.dtype) if t.requires_grad else None
                      for t in (q, k, v))
        for b in blocks:
            p, gb = probs[b], g[b]
            if dv is not None:
                merged(dv)[b] = np.swapaxes(p, -1, -2) @ gb
            # Softmax backward, then the score scale, in place.
            gs = gb @ np.swapaxes(heads_of(v, b), -1, -2)
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            gs *= scale
            if dq is not None:
                merged(dq)[b] = unrotate(gs @ np.swapaxes(keys_t(b), -1, -2))
            if dk is not None:
                gk = (np.swapaxes(rotate(heads_of(q, b)), -1, -2) @ gs).transpose(0, 1, 3, 2)
                merged(dk)[b] = unrotate(gk)
        for t, grad in ((v, dv), (q, dq), (k, dk)):
            if grad is not None:
                t.accumulate_grad(grad)

    return _make("attend", out, (q, k, v), bwd)


def cross_entropy_from_logits(logits: Tensor, labels) -> Tensor:
    """Mean over positions of -log softmax(logits)[label], via log-sum-exp."""
    labels = np.asarray(labels)
    p, v = logits.shape
    if labels.ndim != 1 or labels.shape[0] != p:
        raise ContractError("labels must be a flat list matching logit rows")
    if labels.size and (labels.min() < 0 or labels.max() >= v):
        raise IndexError("label id outside vocabulary")
    m = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - m
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    rows = np.arange(p)
    # Only the picked entries of log softmax are ever read.
    log_picked = shifted[rows, labels] - np.log(z[:, 0])
    loss = -log_picked.mean(dtype=logits.dtype)

    def bwd(g):
        # The closure runs once per tape, so e can become the gradient.
        probs = e
        probs /= z
        probs[rows, labels] -= 1.0
        probs *= g / np.asarray(p, dtype=logits.dtype)
        logits.accumulate_grad(probs)

    return _make("cross_entropy", np.asarray(loss, dtype=logits.dtype), (logits,), bwd)


def tsum(x: Tensor) -> Tensor:
    def bwd(g):
        x.accumulate_grad(np.broadcast_to(g, x.shape).copy())

    return _make("sum", np.asarray(x.data.sum(dtype=x.dtype), dtype=x.dtype), (x,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout. rate == 0 is the identity and draws no randomness."""
    if rate < 0 or rate >= 1:
        raise ContractError("dropout rate must be in [0, 1)")
    if rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.dtype)
    keep /= np.asarray(1.0 - rate, dtype=x.dtype)

    def bwd(g):
        x.accumulate_grad(g * keep)

    return _make("dropout", x.data * keep, (x,), bwd)


def truncated_normal(shape, std: float, rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    """Normal(0, std) resampled until every draw lies within two sigma.

    The first draws come STREAM_BLOCK at a time, each block cast into
    the output as it is drawn, and the redraws follow all of them. That
    consumes the generator exactly as one full-size float64 draw cast at
    the end would, and gives the same values and final generator state,
    without that draw's float64 temporary.
    """
    out = np.empty(shape, dtype)
    flat = out.reshape(-1)
    bad = [np.empty(0, np.intp)]
    for blk in row_blocks(flat.size, 1)[1]:
        draw = rng.normal(0.0, std, size=blk.stop - blk.start)
        flat[blk] = draw
        bad.append(blk.start + np.flatnonzero(np.abs(draw) > 2.0 * std))
    bad = np.concatenate(bad)
    # Only positions redrawn in the last round can still be out of range.
    while bad.size:
        redraw = rng.normal(0.0, std, size=bad.size)
        flat[bad] = redraw
        bad = bad[np.abs(redraw) > 2.0 * std]
    return out
