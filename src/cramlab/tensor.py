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
# (initialization here, the Adam update in trainer.py): a few float32
# buffers of this length stay in the per-core cache, where a temporary
# the size of the whole parameter would stream through main memory.
STREAM_BLOCK = 1 << 15

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
    apply elementwise gain and bias."""
    if eps <= 0:
        raise ContractError("layer_norm eps must be positive")
    _check_dtypes("layer_norm", x, gain, bias)
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xhat = centered * inv

    def bwd(g):
        if gain.requires_grad:
            gain.accumulate_grad((g * xhat).reshape(-1, x.shape[-1]).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate_grad(g.reshape(-1, x.shape[-1]).sum(axis=0))
        if x.requires_grad:
            gxhat = g * gain.data
            m1 = gxhat.mean(axis=-1, keepdims=True)
            m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
            x.accumulate_grad(inv * (gxhat - m1 - xhat * m2))

    return _make("layer_norm", xhat * gain.data + bias.data, (x, gain, bias), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    y = np.exp(shifted, out=shifted)
    y /= y.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        x.accumulate_grad(y * (g - inner))

    return _make("softmax", y, (x,), bwd)


def _gelu_grad(x: np.ndarray, phi_cdf: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g * d gelu(x)/dx, given phi_cdf = Phi(x) from the forward pass."""
    pdf = x * x
    pdf *= -0.5
    np.exp(pdf, out=pdf)
    pdf /= np.asarray(_SQRT_2PI, dtype=x.dtype)
    pdf *= x
    pdf += phi_cdf
    pdf *= g
    return pdf


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x) with the exact Gaussian CDF (erf form)."""
    phi_cdf = ndtr(x.data).astype(x.dtype, copy=False)

    def bwd(g):
        x.accumulate_grad(_gelu_grad(x.data, phi_cdf, g))

    return _make("gelu", x.data * phi_cdf, (x,), bwd)


def glu_gelu(h: Tensor) -> Tensor:
    """Gated linear unit value * gelu(gate) over the two halves of the last axis."""
    value, gate = np.split(h.data, 2, axis=-1)
    phi_cdf = ndtr(gate).astype(h.dtype, copy=False)
    act = gate * phi_cdf

    def bwd(g):
        h.accumulate_grad(np.concatenate(
            [g * act, _gelu_grad(gate, phi_cdf, g * value)], axis=-1))

    return _make("glu_gelu", value * act, (h,), bwd)


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
    scores, which are scaled, biased and normalized in place; backward
    keeps only the probabilities and the per-head q, k^T and v.
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

    def heads_of(t: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(t.reshape(B, S, H, dh).transpose(0, 2, 1, 3))

    def rotate(h: np.ndarray) -> np.ndarray:
        return h if rot is None else h * cos + _rotate_half(h) * sin

    def unrotate(g: np.ndarray) -> np.ndarray:
        return g if rot is None else g * cos - _rotate_half(g * sin)

    def merge(h: np.ndarray) -> np.ndarray:
        return h.transpose(0, 2, 1, 3).reshape(rows, d)

    qh, vh = rotate(heads_of(q.data)), heads_of(v.data)
    kt = np.ascontiguousarray(rotate(heads_of(k.data)).transpose(0, 1, 3, 2))
    probs = qh @ kt
    probs *= scale
    if key_bias is not None:
        probs += np.asarray(key_bias, dtype=q.dtype)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)

    def bwd(g):
        g = g.reshape(B, S, H, dh).transpose(0, 2, 1, 3)
        if v.requires_grad:
            v.accumulate_grad(merge(np.swapaxes(probs, -1, -2) @ g))
        # Softmax backward, then the score scale, in place.
        gs = g @ np.swapaxes(vh, -1, -2)
        gs -= (gs * probs).sum(axis=-1, keepdims=True)
        gs *= probs
        gs *= scale
        if q.requires_grad:
            q.accumulate_grad(merge(unrotate(gs @ np.swapaxes(kt, -1, -2))))
        if k.requires_grad:
            gk = (np.swapaxes(qh, -1, -2) @ gs).transpose(0, 1, 3, 2)
            k.accumulate_grad(merge(unrotate(gk)))

    return _make("attend", merge(probs @ vh), (q, k, v), bwd)


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
    for lo in range(0, flat.size, STREAM_BLOCK):
        draw = rng.normal(0.0, std, size=min(STREAM_BLOCK, flat.size - lo))
        flat[lo:lo + draw.size] = draw
        bad.append(lo + np.flatnonzero(np.abs(draw) > 2.0 * std))
    bad = np.concatenate(bad)
    # Only positions redrawn in the last round can still be out of range.
    while bad.size:
        redraw = rng.normal(0.0, std, size=bad.size)
        flat[bad] = redraw
        bad = bad[np.abs(redraw) > 2.0 * std]
    return out
