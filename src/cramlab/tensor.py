"""Dense tensors with reverse-mode automatic differentiation.

Just enough of an array-autograd layer to express a small transformer
encoder and its training step on top of numpy. Each op executed while
a Tape is active records its output's gradient slot, its inputs' slots
and a backward closure; a leaf tensor is its own slot, an op output
gets a bare Slot.

A backward closure maps the output's gradient to one gradient per
input, in input order: an array, or (rows, values) for gather_rows. It
holds only the arrays it reads, never a Tensor or a Slot, so an
activation's .data is freed as soon as the forward has moved past it
unless some backward reads it: a residual sum, a projection that only
feeds an add and the logits once the loss has their exponentials are
all gone before backward starts.

An output one elementwise pass can remake from arrays its producer's
backward keeps anyway is rebuilt, not kept: layer_norm (x-hat * gain +
bias), gelu (x * Phi) and glu_gelu (gate * Phi * value) write that pass
once, as a zero-argument function over arrays, which the forward calls
for the output and a recorded output's rebuild replays; reshape passes
a rebuild through. The products (matmul, matmul_t and the decoder in
decoder_cross_entropy) share one core, _product, which checks the
operands, adds the bias, builds the backward and captures an input's
rebuild in place of its .data, so no product keeps a norm or
activation output. A rebuild makes its array once per backward, so the
q, k and v products share one copy, which dies with the last of their
records.

decoder_cross_entropy fuses the tied decoder's product (matmul_t) with
the masked-LM loss (cross_entropy_from_logits): its one (rows, V) buffer
holds the logits, then their shifted exponentials, and in backward
their gradient, where the pair holds two. The loss core it shares with
cross_entropy_from_logits is written once.

Tape.backward replays the records newest-first, once, dropping each
record and its output's gradient as it goes, so only leaf tensors hold
.grad afterwards. It alone applies the gradient rules, to each
returned gradient in turn:
1. skip an input whose slot wants no gradient;
2. sum a broadcast gradient down to the input's shape;
3. copy a gradient that shares memory with one the same closure
   returned before it, so no two .grad buffers overlap;
4. Slot.accumulate_grad: keep the first contribution by reference and
   add later ones in place, so accumulating micro-batches allocates no
   new parameter-sized buffer.

Passes over an array much larger than the per-core cache stream
through it in blocks of about STREAM_BLOCK elements: parameter-sized
passes walk a flat view, and activation ops (gelu, glu_gelu,
layer_norm, attend) walk whole rows, one sequence at a time for
attention. A block runs a long ufunc chain (Phi, x-hat, attention
scores) through block-sized scratch, so its intermediates stay in
cache; an output of one or two ufuncs into a fresh array makes no
temporary and is written whole. attend keeps only each score row's max
and sum for backward, which recomputes the probabilities block by block
in scratch. Every element sees the same ufuncs in the same order as the
whole-array form, and row reductions see the same rows, so the bytes do
not depend on the blocking.

Training runs in float32. The finite-difference oracles in the tests run
the same code at float64; ops never mix dtypes silently.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_ERFC = np.frompyfunc(math.erfc, 1, 1)

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
# use and evaluation. Every optimizer step (trainer._update) turns it
# off, checks the loss and gradient norm once instead, and turns it back
# on to replay a failed step and name the op; oracles may disable it
# around intentional overflow probes.
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


# One input's gradient, as a backward closure returns it.
Gradient = np.ndarray | tuple[np.ndarray, np.ndarray]
BackwardFn = Callable[[np.ndarray], Sequence[Gradient]]
Rebuild = Callable[[], np.ndarray]


class Slot:
    """Gradient slot: where backward sends one tensor's gradient.

    Holds the gradient, whether one is wanted and the shape it has, and
    nothing of the tensor's data.
    """

    __slots__ = ("grad", "requires_grad", "shape")

    def __init__(self, shape: tuple, requires_grad: bool = False):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.shape = shape

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: Gradient) -> None:
        """Keep the first gradient by reference and add later ones in place.

        g is a writable array that overlaps no other live .grad, or
        (rows, values): values added into those rows of .grad, which
        starts as zeros when there is none. rows holds no repeats.
        """
        if isinstance(g, tuple):
            rows, values = g
            if self.grad is None:
                self.grad = np.zeros(self.shape, values.dtype)
            self.grad[rows] += values
        elif self.grad is None:
            self.grad = g
        else:
            self.grad += g


class Tensor(Slot):
    """n-dimensional array plus optional gradient buffer.

    A leaf tensor (a parameter or an input, made by the caller) is its
    own gradient slot. An op output recorded on a tape gets a separate
    Slot, `slot`, which the tape records hold, so they never keep its
    .data alive, and, when its producer can remake it, a `rebuild`.

    Data is immutable by convention once an op has consumed it; the
    optimizer mutates parameter .data in place between tapes, which is
    the one sanctioned exception.
    """

    __slots__ = ("data", "name", "_slot", "rebuild")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        super().__init__(arr.shape, requires_grad)
        self.data = arr
        self.name = name
        self._slot: Slot | None = None
        self.rebuild: Rebuild | None = None

    @property
    def slot(self) -> Slot:
        """Where backward sends this tensor's gradient."""
        return self if self._slot is None else self._slot

    @property
    def dtype(self):
        return self.data.dtype

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
        self._records: list[tuple[Slot, tuple[Slot, ...], BackwardFn]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack.pop()
        if popped is not self:
            raise ContractError("tape stack corrupted")

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss)=1 and replay records newest-first,
        applying the gradient rules of the module docstring."""
        if self._consumed:
            raise ContractError("tape already consumed by a previous backward")
        if loss.data.size != 1:
            raise ContractError("backward requires a scalar loss")
        self._consumed = True
        loss.slot.grad = np.ones_like(loss.data)
        # Records are in creation order, so when an output's record comes
        # up every consumer of it has already added its gradient. Popping
        # frees the closure's saved activations, and the output's gradient
        # is dropped as soon as its inputs have theirs.
        records = self._records
        while records:
            out, inputs, fn = records.pop()
            if out.grad is not None:
                _send(inputs, fn(out.grad))
                out.zero_grad()

    def __len__(self) -> int:
        return len(self._records)


def _send(slots: Sequence[Slot], grads: Sequence[Gradient]) -> None:
    """Apply the gradient rules to one closure's gradients, in order:
    skip, unbroadcast, copy an overlapping one, accumulate. Only this
    call holds the closure's result, so a gradient no slot kept is freed
    before the next closure runs."""
    sent: list[np.ndarray] = []
    for slot, g in zip(slots, grads):
        if not slot.requires_grad:
            continue
        if not isinstance(g, tuple):
            g = _unbroadcast(g, slot.shape)
            if any(np.may_share_memory(g, other) for other in sent):
                g = g.copy()
            sent.append(g)
        slot.accumulate_grad(g)


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


def _make(op: str, data: np.ndarray, inputs: Sequence[Tensor], backward_fn: BackwardFn,
          rebuild: Rebuild | None = None) -> Tensor:
    """Wrap an op result; if a tape is live and an input wants a gradient,
    give the result its own gradient slot and record it with the inputs'
    slots and backward_fn, which maps the result's gradient to one
    gradient per input and holds only the arrays it reads. A recorded
    result also gets rebuild, if given, made to build its array once.
    """
    _guard(data, op)
    out = Tensor(data)
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._slot = Slot(out.shape, True)
        tape._records.append((out._slot, tuple(t.slot for t in inputs), backward_fn))
        if rebuild is not None:
            out.rebuild = _once(rebuild)
    return out


def _once(build: Rebuild) -> Rebuild:
    """build, called at most once: later calls return the same array,
    which lives as long as the last closure holding this rebuild."""
    made: list[np.ndarray] = []

    def rebuild() -> np.ndarray:
        if not made:
            made.append(build())
        return made[0]

    return rebuild


def _reader(t: Tensor) -> Rebuild:
    """How a backward reads t's data: t's rebuild when it has one, so the
    closure keeps no array its producer can remake, else t.data itself."""
    if t.rebuild is not None:
        return t.rebuild
    data = t.data
    return lambda: data


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
    b = _as_tensor(b, a.dtype)
    _check_dtypes("add", a, b)
    return _make("add", a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_dtypes("mul", a, b)
    ad, bd = a.data, b.data
    return _make("mul", ad * bd, (a, b), lambda g: (g * bd, g * ad))


def _product(op: str, a: Tensor, b: Tensor, bias: Tensor | None, transposed: bool):
    """a @ b (+ bias) for 2-D operands, or a @ b.T without materializing
    the transpose: the product, its recorded inputs, (a, b) or
    (a, b, bias), and the backward that maps its gradient to theirs.

    Every product takes one bias rule: the optional bias is added in
    place into the fresh product, and its gradient is summed in the
    product's own backward, so a biased projection records one op and
    keeps no pre-bias buffer. Each op fixes its form: matmul the plain
    one, matmul_t and decoder_cross_entropy the transposed one.
    """
    inputs = (a, b) if bias is None else (a, b, bias)
    _check_dtypes(op, *inputs)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ContractError(f"{op} expects 2-D operands")
    if a.shape[1] != b.shape[transposed]:
        raise ContractError(f"{op} inner dims {a.shape} @ {b.shape}{'^T' if transposed else ''}")
    ad, bd = _reader(a), _reader(b)
    if transposed:
        data = a.data @ b.data.T
        bwd = lambda g: (g @ bd(), g.T @ ad(), g)
    else:
        data = a.data @ b.data
        bwd = lambda g: (g @ bd().T, ad().T @ g, g)
    if bias is not None:
        data += bias.data
    return data, inputs, bwd


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b (+ bias) for 2-D operands, under _product's bias rule."""
    return _make("matmul", *_product("matmul", a, b, bias, False))


def matmul_t(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b.T (+ bias) for 2-D operands, without materializing the transpose.

    The decoder shares storage with the (V, d) embedding table, so the
    tied head is a matmul against its transpose. The bias follows
    _product's rule, so the head holds one logits buffer instead of two.
    Callers that decode only some rows gather them first (gather_rows),
    so no logits the loss would drop are computed.
    """
    return _make("matmul_t", *_product("matmul_t", a, b, bias, True))


def reshape(a: Tensor, shape: tuple) -> Tensor:
    in_shape, remake = a.shape, a.rebuild
    return _make("reshape", a.data.reshape(shape), (a,), lambda g: (g.reshape(in_shape),),
                 None if remake is None else lambda: remake().reshape(shape))


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows of a 2-D tensor: out[i] = a[idx[i]].

    Serves embedding lookup and the masked-row selection before the
    decoder. Repeated rows sum their gradients, and backward returns
    only the rows looked up.
    """
    idx = np.asarray(idx)
    if a.data.ndim != 2:
        raise ContractError("gather_rows expects a 2-D tensor")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError("gather_rows index out of range")
    d = a.shape[1]

    def bwd(g):
        # Sum each looked-up row's contributions in lookup order, as a
        # dense scatter would; the tape adds only those rows into the
        # table's gradient (e.g. the tied decoder's). add.at over flat
        # element indices takes numpy's fast 1-D loop, several times
        # faster than the same sums over 2-D rows.
        uniq, inv = np.unique(idx.ravel(), return_inverse=True)
        rows = np.zeros((uniq.size, d), g.dtype)
        np.add.at(rows.reshape(-1), (inv[:, None] * d + np.arange(d)).ravel(), g.reshape(-1))
        return ((uniq, rows),)

    return _make("gather_rows", a.data[idx], (a,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to mean 0 / population variance 1, then
    apply elementwise gain and bias.

    Mean, variance and x-hat are computed one row block at a time, and
    so is the input gradient; the gain and bias gradients are
    whole-array sums over rows. The output is x-hat * gain + bias.
    """
    if eps <= 0:
        raise ContractError("layer_norm eps must be positive")
    _check_dtypes("layer_norm", x, gain, bias)
    xs = _as_rows(x.data)
    n, d = xs.shape
    eps = np.asarray(eps, dtype=x.dtype)
    step, blocks = row_blocks(n, d)
    xhat, inv = np.empty((n, d), x.dtype), np.empty((n, 1), x.dtype)
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
    x_shape, gd, bd, dt = x.shape, gain.data, bias.data, x.dtype

    def output():
        y = np.multiply(xhat, gd)
        y += bd
        return y.reshape(x_shape)

    def bwd(g):
        gs = g.reshape(n, d)
        dx = np.empty((n, d), dt)
        dgain = np.multiply(gs, xhat, out=dx).sum(axis=0)
        gx, prod = np.empty((step, d), dt), np.empty((step, d), dt)
        m1, m2 = np.empty((step, 1), dt), np.empty((step, 1), dt)
        for b in blocks:
            k = b.stop - b.start
            gxb = np.multiply(gs[b], gd, out=gx[:k])
            np.mean(gxb, axis=-1, keepdims=True, out=m1[:k])
            pb = np.multiply(gxb, xhat[b], out=prod[:k])
            np.mean(pb, axis=-1, keepdims=True, out=m2[:k])
            gxb -= m1[:k]
            np.multiply(xhat[b], m2[:k], out=pb)
            gxb -= pb
            np.multiply(inv[b], gxb, out=dx[b])
        return dx.reshape(x_shape), dgain, gs.sum(axis=0)

    return _make("layer_norm", output(), (x, gain, bias), bwd, output)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    y = np.exp(shifted, out=shifted)
    y /= y.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - inner),)

    return _make("softmax", y, (x,), bwd)


def _normal_cdf(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Phi(x) into out. float32 takes (1 + erf(x / sqrt 2)) / 2 through
    the rational erf above, in float32 throughout, using three scratch
    buffers of out's shape; any other dtype (the float64 test oracles)
    takes erfc(-x / sqrt 2) / 2 element by element through math.erfc,
    which keeps the far left tail's relative precision. out may alias x."""
    if x.dtype != np.float32:
        np.multiply(x, -math.sqrt(0.5), out=out)
        out[...] = _ERFC(out)
        out *= 0.5
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
    """x * Phi(x) with the exact Gaussian CDF (erf form); Phi is
    computed by row blocks and kept for backward."""
    xs = _as_rows(x.data)
    step, blocks = row_blocks(*xs.shape)
    phi_cdf = np.empty(xs.shape, x.dtype)
    scratch = np.empty((3, step, xs.shape[1]), x.dtype)
    for b in blocks:
        _normal_cdf(xs[b], phi_cdf[b], scratch[:, :b.stop - b.start])
    x_shape = x.shape

    def output():
        return np.multiply(xs, phi_cdf).reshape(x_shape)

    def bwd(g):
        gs, dx = g.reshape(xs.shape), np.empty(xs.shape, xs.dtype)
        for b in blocks:
            _gelu_grad(xs[b], phi_cdf[b], gs[b], dx[b])
        return (dx.reshape(x_shape),)

    return _make("gelu", output(), (x,), bwd, output)


def glu_gelu(h: Tensor) -> Tensor:
    """Gated linear unit value * gelu(gate) over the two halves of the
    last axis; Phi(gate) is computed by row blocks and kept, and backward
    recomputes gelu(gate) from it."""
    hs = _as_rows(h.data)
    half = hs.shape[1] // 2
    value, gate = hs[:, :half], hs[:, half:]
    step, blocks = row_blocks(len(hs), half)
    phi_cdf = np.empty(value.shape, h.dtype)
    scratch = np.empty((3, step, half), h.dtype)
    for b in blocks:
        _normal_cdf(gate[b], phi_cdf[b], scratch[:, :b.stop - b.start])
    h_shape, out_shape = h.shape, h.shape[:-1] + (half,)

    def output():
        y = np.multiply(gate, phi_cdf)
        y *= value
        return y.reshape(out_shape)

    def bwd(g):
        gs, dh = g.reshape(value.shape), np.empty(hs.shape, hs.dtype)
        dvalue, dgate = dh[:, :half], dh[:, half:]
        gv = np.empty((step, half), hs.dtype)
        for b in blocks:
            dv = np.multiply(gate[b], phi_cdf[b], out=dvalue[b])
            dv *= gs[b]
            gvb = np.multiply(gs[b], value[b], out=gv[:b.stop - b.start])
            _gelu_grad(gate[b], phi_cdf[b], gvb, dgate[b])
        return (dh.reshape(h_shape),)

    return _make("glu_gelu", output(), (h,), bwd, output)


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
    from the projections and its probabilities in one block-sized
    scratch. No (B, H, S, S) array exists: backward keeps q, k, v and
    each score row's max and sum, and recomputes a block's probabilities
    with the forward's ops in the forward's order, so they match byte
    for byte.
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

    def heads_of(t: np.ndarray, b: slice) -> np.ndarray:
        """Sequences b of a (B*S, d) array as contiguous (n, H, S, dh) heads."""
        t = t[b.start * S:b.stop * S]
        return np.ascontiguousarray(t.reshape(-1, S, H, dh).transpose(0, 2, 1, 3))

    def rotate(h: np.ndarray) -> np.ndarray:
        return h if rot is None else h * cos + _rotate_half(h) * sin

    def unrotate(g: np.ndarray) -> np.ndarray:
        return g if rot is None else g * cos - _rotate_half(g * sin)

    def keys_t(b: slice) -> np.ndarray:
        return np.ascontiguousarray(rotate(heads_of(kd, b)).transpose(0, 1, 3, 2))

    def merged(a: np.ndarray) -> np.ndarray:
        """(B, H, S, dh) heads view of a (B*S, d) array."""
        return a.reshape(B, S, H, dh).transpose(0, 2, 1, 3)

    def probs(b: slice, qh: np.ndarray, kt: np.ndarray, scratch: np.ndarray,
              fresh: bool) -> np.ndarray:
        """Sequences b's probabilities in scratch: the scaled, biased scores
        less their row max, exponentiated and over their row sum. The
        forward's fresh pass writes the two row statistics; backward reads
        them back, so its probabilities equal the forward's byte for byte."""
        p = np.matmul(qh, kt, out=scratch[:b.stop - b.start])
        p *= scale
        if key_bias is not None:
            p += key_bias[b]
        p -= np.max(p, axis=-1, keepdims=True, out=row_max[b]) if fresh else row_max[b]
        np.exp(p, out=p)
        p /= np.sum(p, axis=-1, keepdims=True, out=row_sum[b]) if fresh else row_sum[b]
        return p

    qd, kd, vd = q.data, k.data, v.data
    row_max, row_sum = (np.empty((B, H, S, 1), q.dtype) for _ in range(2))
    out = np.empty((rows, d), q.dtype)
    scratch = np.empty((step, H, S, S), q.dtype)
    for b in blocks:
        p = probs(b, rotate(heads_of(qd, b)), keys_t(b), scratch, fresh=True)
        merged(out)[b] = p @ heads_of(vd, b)

    def bwd(g):
        g = merged(g)
        dq, dk, dv = (np.empty((rows, d), qd.dtype) for _ in range(3))
        scratch, gsp = (np.empty((step, H, S, S), qd.dtype) for _ in range(2))
        for b in blocks:
            qh, kt, gb = rotate(heads_of(qd, b)), keys_t(b), g[b]
            p = probs(b, qh, kt, scratch, fresh=False)
            merged(dv)[b] = np.swapaxes(p, -1, -2) @ gb
            # Softmax backward, then the score scale, in place.
            gs = gb @ np.swapaxes(heads_of(vd, b), -1, -2)
            gs -= np.multiply(gs, p, out=gsp[:len(p)]).sum(axis=-1, keepdims=True)
            gs *= p
            gs *= scale
            merged(dq)[b] = unrotate(gs @ np.swapaxes(kt, -1, -2))
            # gs^T q comes out in dk's (key, dh) layout, so its write is contiguous.
            merged(dk)[b] = unrotate(np.swapaxes(gs, -1, -2) @ qh)
        return dq, dk, dv

    return _make("attend", out, (q, k, v), bwd)


def _softmax_xent(logits: np.ndarray, labels, out: np.ndarray):
    """Mean over rows of -log softmax(logits)[label], via log-sum-exp,
    and the function that turns out into the logits' gradient.

    out, of logits' shape and possibly logits itself, is the one
    logits-sized buffer: it takes the shifted logits, whose picked
    entries are the only ones of log softmax ever read, then their
    exponentials in place. The gradient function overwrites it, so it
    runs at most once, as a tape closure does.
    """
    labels = np.asarray(labels)
    p, v = logits.shape
    if labels.ndim != 1 or labels.shape[0] != p:
        raise ContractError("labels must be a flat list matching logit rows")
    if labels.size and (labels.min() < 0 or labels.max() >= v):
        raise IndexError("label id outside vocabulary")
    dt, rows = logits.dtype, np.arange(p)
    e = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    picked = e[rows, labels]
    np.exp(e, out=e)
    z = e.sum(axis=1, keepdims=True)
    loss = np.asarray(-(picked - np.log(z[:, 0])).mean(dtype=dt), dtype=dt)

    def logits_grad(g):
        probs = e
        probs /= z
        probs[rows, labels] -= 1.0
        probs *= g / np.asarray(p, dtype=dt)
        return probs

    return loss, logits_grad


def cross_entropy_from_logits(logits: Tensor, labels) -> Tensor:
    """Mean over positions of -log softmax(logits)[label], via log-sum-exp."""
    x = logits.data
    loss, logits_grad = _softmax_xent(x, labels, np.empty_like(x))
    return _make("cross_entropy", loss, (logits,), lambda g: (logits_grad(g),))


def decoder_cross_entropy(h: Tensor, table: Tensor, bias: Tensor | None, labels) -> Tensor:
    """cross_entropy_from_logits(matmul_t(h, table, bias), labels), fused.

    That pair holds two (rows, V) buffers, the logits and their shifted
    copy; this op holds one. The product is shifted and exponentiated in
    place, and backward turns it into the logits' gradient, which feeds
    matmul_t's three products in matmul_t's order, so a tied table
    accumulates exactly as it does through the pair, and the bytes match.
    """
    e, inputs, product_bwd = _product("decoder_cross_entropy", h, table, bias, True)
    _guard(e, "decoder_cross_entropy")
    loss, logits_grad = _softmax_xent(e, labels, e)
    return _make("decoder_cross_entropy", loss, inputs, lambda g: product_bwd(logits_grad(g)))


def tsum(x: Tensor) -> Tensor:
    shape = x.shape
    return _make("sum", np.asarray(x.data.sum(dtype=x.dtype), dtype=x.dtype), (x,),
                 lambda g: (np.broadcast_to(g, shape).copy(),))


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout. rate == 0 is the identity and draws no randomness."""
    if rate < 0 or rate >= 1:
        raise ContractError("dropout rate must be in [0, 1)")
    if rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.dtype)
    keep /= np.asarray(1.0 - rate, dtype=x.dtype)
    return _make("dropout", x.data * keep, (x,), lambda g: (g * keep,))


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
