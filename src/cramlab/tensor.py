"""Dense tensors with reverse-mode automatic differentiation.

Just enough of an array-autograd layer to express a small transformer
encoder and its training step on top of numpy. Operations executed while
a Tape is active record backward closures onto it; Tape.backward replays
them in reverse exactly once.

Training runs in float32. Verification oracles (finite_diff_check and
the tests built on it) run the same code at float64; ops never mix
dtypes silently.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import ndtr

from .errors import ContractError

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Non-finite op outputs raise FloatingPointError immediately instead of
# propagating NaN into the optimizer. The trainer relies on this to
# abort divergent runs; oracles may disable it around intentional
# overflow probes.
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

    __slots__ = ("data", "grad", "requires_grad", "name", "_tape", "_grad_owned")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._tape: Tape | None = None
        self._grad_owned = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None
        self._grad_owned = False

    def accumulate_grad(self, g: np.ndarray) -> None:
        # The first contribution is kept by reference; backward ops hand in
        # buffers they will not touch again, so copying here would only add
        # an allocation per edge. A second contribution forces a fresh sum
        # because the stored buffer may be shared (e.g. a reshape view).
        if self.grad is None:
            self.grad = g
            self._grad_owned = False
        elif self._grad_owned:
            self.grad += g
        else:
            self.grad = self.grad + g
            self._grad_owned = True

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError("item() on non-scalar tensor")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}{tag})"

    # Operator sugar; free functions below are the primary surface.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        return add(self, scale(_as_tensor(other, self.dtype), -1.0))

    def sum(self):
        return tsum(self)


class Tape:
    """Ordered record of differentiable ops for one forward pass.

    Use as a context manager; ops run outside any active tape are pure
    forward computations and record nothing.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[], None]]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack.pop()
        if popped is not self:
            raise ContractError("tape stack corrupted")

    def record(self, out: Tensor, backward_fn: Callable[[], None]) -> None:
        self._records.append((out, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss)=1 and replay records newest-first."""
        if self._consumed:
            raise ContractError("tape already consumed by a previous backward")
        if loss.data.size != 1:
            raise ContractError("backward requires a scalar loss")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        loss._grad_owned = True
        for out, fn in reversed(self._records):
            if out.grad is not None:
                fn()
        # Drop the graph now; closures pin every intermediate buffer and
        # the record list is the only thing keeping the cycle alive.
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)


_tape_stack: list[Tape] = []


def _active_tape() -> Tape | None:
    return _tape_stack[-1] if _tape_stack else None


def backward(loss: Tensor) -> None:
    """Populate .grad of every requires_grad tensor reachable from loss."""
    tape = loss._tape or _active_tape()
    if tape is None:
        raise ContractError("backward called with no recording tape")
    tape.backward(loss)


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
    """Wrap an op result; record the backward closure if a tape is live."""
    _guard(data, op)
    out = Tensor(data)
    tape = _active_tape()
    needs = any(t.requires_grad for t in inputs)
    if tape is not None and needs:
        out.requires_grad = True
        out._tape = tape
        tape.record(out, backward_fn(out))
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

    def bwd(out):
        def fn():
            ga = None
            if a.requires_grad:
                ga = _unbroadcast(out.grad, a.shape)
                a.accumulate_grad(ga)
            if b.requires_grad:
                gb = _unbroadcast(out.grad, b.shape)
                if gb is ga:
                    # Both sides got out.grad itself; hand the second one a
                    # copy so two tensors never share a grad buffer.
                    gb = gb.copy()
                b.accumulate_grad(gb)
        return fn

    return _make("add", a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _as_tensor(a, b.dtype)
    b = _as_tensor(b, a.dtype)
    _check_dtypes("mul", a, b)

    def bwd(out):
        def fn():
            if a.requires_grad:
                a.accumulate_grad(_unbroadcast(out.grad * b.data, a.shape))
            if b.requires_grad:
                b.accumulate_grad(_unbroadcast(out.grad * a.data, b.shape))
        return fn

    return _make("mul", a.data * b.data, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def bwd(out):
        def fn():
            a.accumulate_grad(out.grad * np.asarray(s, dtype=a.dtype))
        return fn

    return _make("scale", a.data * np.asarray(s, dtype=a.dtype), (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; 2-D, or batched with identical leading dims."""
    _check_dtypes("matmul", a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ContractError("matmul requires at least 2-D operands")
    if a.shape[-1] != b.shape[-2]:
        raise ContractError(f"matmul inner dims {a.shape} @ {b.shape}")
    if a.data.ndim != b.data.ndim and b.data.ndim != 2:
        raise ContractError("matmul batch ranks differ")
    if a.data.ndim == b.data.ndim and a.shape[:-2] != b.shape[:-2]:
        raise ContractError("matmul batch dims differ")

    def bwd(out):
        def fn():
            g = out.grad
            if a.requires_grad:
                ga = g @ np.swapaxes(b.data, -1, -2)
                a.accumulate_grad(_unbroadcast(ga, a.shape))
            if b.requires_grad:
                gb = np.swapaxes(a.data, -1, -2) @ g
                b.accumulate_grad(_unbroadcast(gb, b.shape))
        return fn

    return _make("matmul", a.data @ b.data, (a, b), bwd)


def matmul_t(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.T for 2-D operands, without materializing the transpose.

    The decoder shares storage with the (V, d) embedding table, so the
    tied head is a matmul against its transpose.
    """
    _check_dtypes("matmul_t", a, b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ContractError("matmul_t expects 2-D operands")
    if a.shape[1] != b.shape[1]:
        raise ContractError(f"matmul_t inner dims {a.shape} @ {b.shape}^T")

    def bwd(out):
        def fn():
            g = out.grad
            if a.requires_grad:
                a.accumulate_grad(g @ b.data)
            if b.requires_grad:
                b.accumulate_grad(g.T @ a.data)
        return fn

    return _make("matmul_t", a.data @ b.data.T, (a, b), bwd)


def reshape(a: Tensor, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])

    def bwd(out):
        def fn():
            a.accumulate_grad(out.grad.reshape(a.shape))
        return fn

    return _make("reshape", a.data.reshape(shape), (a,), bwd)


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def bwd(out):
        def fn():
            a.accumulate_grad(out.grad.transpose(inverse))
        return fn

    return _make("permute", np.ascontiguousarray(a.data.transpose(axes)), (a,), bwd)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows of a 2-D tensor: out[i] = a[idx[i]].

    Serves both embedding lookup and sparse masked-position selection.
    """
    idx = np.asarray(idx)
    if a.data.ndim != 2:
        raise ContractError("gather_rows expects a 2-D tensor")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError("gather_rows index out of range")

    def bwd(out):
        def fn():
            g = np.zeros_like(a.data)
            np.add.at(g, idx, out.grad)
            a.accumulate_grad(g)
        return fn

    return _make("gather_rows", a.data[idx], (a,), bwd)


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    def bwd(out):
        def fn():
            g = np.zeros_like(a.data)
            g[..., start:stop] = out.grad
            a.accumulate_grad(g)
        return fn

    return _make("slice_last", np.ascontiguousarray(a.data[..., start:stop]), (a,), bwd)


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("concat_last", a, b)
    na = a.shape[-1]

    def bwd(out):
        def fn():
            if a.requires_grad:
                a.accumulate_grad(out.grad[..., :na])
            if b.requires_grad:
                b.accumulate_grad(out.grad[..., na:])
        return fn

    return _make("concat_last", np.concatenate([a.data, b.data], axis=-1), (a, b), bwd)


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

    def bwd(out):
        def fn():
            g = out.grad
            if gain.requires_grad:
                gain.accumulate_grad((g * xhat).reshape(-1, x.shape[-1]).sum(axis=0))
            if bias.requires_grad:
                bias.accumulate_grad(g.reshape(-1, x.shape[-1]).sum(axis=0))
            if x.requires_grad:
                gxhat = g * gain.data
                m1 = gxhat.mean(axis=-1, keepdims=True)
                m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
                x.accumulate_grad(inv * (gxhat - m1 - xhat * m2))
        return fn

    return _make("layer_norm", xhat * gain.data + bias.data, (x, gain, bias), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    y = np.exp(shifted, out=shifted)
    y /= y.sum(axis=axis, keepdims=True)

    def bwd(out):
        def fn():
            g = out.grad
            inner = (g * y).sum(axis=axis, keepdims=True)
            x.accumulate_grad(y * (g - inner))
        return fn

    return _make("softmax", y, (x,), bwd)


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x) with the exact Gaussian CDF (erf form)."""
    phi_cdf = ndtr(x.data).astype(x.dtype, copy=False)

    def bwd(out):
        def fn():
            pdf = x.data * x.data
            pdf *= -0.5
            np.exp(pdf, out=pdf)
            pdf /= np.asarray(_SQRT_2PI, dtype=x.dtype)
            pdf *= x.data
            pdf += phi_cdf
            pdf *= out.grad
            x.accumulate_grad(pdf)
        return fn

    return _make("gelu", x.data * phi_cdf, (x,), bwd)


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

    def bwd(out):
        def fn():
            probs = e / z
            probs[rows, labels] -= 1.0
            probs *= out.grad / np.asarray(p, dtype=logits.dtype)
            logits.accumulate_grad(probs)
        return fn

    return _make("cross_entropy", np.asarray(loss, dtype=logits.dtype), (logits,), bwd)


def tsum(x: Tensor) -> Tensor:
    def bwd(out):
        def fn():
            x.accumulate_grad(np.broadcast_to(out.grad, x.shape).copy())
        return fn

    return _make("sum", np.asarray(x.data.sum(dtype=x.dtype), dtype=x.dtype), (x,), bwd)


def tmean(x: Tensor) -> Tensor:
    n = x.data.size

    def bwd(out):
        def fn():
            x.accumulate_grad(
                np.broadcast_to(out.grad / np.asarray(n, dtype=x.dtype), x.shape).copy()
            )
        return fn

    return _make("mean", np.asarray(x.data.mean(dtype=x.dtype), dtype=x.dtype), (x,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout. rate == 0 is the identity and draws no randomness."""
    if rate < 0 or rate >= 1:
        raise ContractError("dropout rate must be in [0, 1)")
    if rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.dtype)
    keep /= np.asarray(1.0 - rate, dtype=x.dtype)

    def bwd(out):
        def fn():
            x.accumulate_grad(out.grad * keep)
        return fn

    return _make("dropout", x.data * keep, (x,), bwd)


def truncated_normal(shape, std: float, rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    """Normal(0, std) resampled until every draw lies within two sigma."""
    out = rng.normal(0.0, std, size=shape)
    flat = out.reshape(-1)
    # Only positions redrawn in the last round can still be out of range.
    bad = np.flatnonzero(np.abs(flat) > 2.0 * std)
    while bad.size:
        redraw = rng.normal(0.0, std, size=bad.size)
        flat[bad] = redraw
        bad = bad[np.abs(redraw) > 2.0 * std]
    return out.astype(dtype)


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Iterable[Tensor],
    h: float = 1e-4,
    rel_floor: float = 1e-3,
) -> float:
    """Max relative error between backward() and central finite differences.

    f rebuilds the scalar loss from the current .data of params and must
    be deterministic. The relative error denominator is clamped at
    rel_floor so finite-difference noise on near-zero gradients does not
    dominate the report.
    """
    params = list(params)
    with Tape() as tape:
        loss = f()
        tape.backward(loss)
    analytic = [np.array(p.grad, copy=True) if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    for p in params:
        p.zero_grad()

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        a_flat = a.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = f().item()
            flat[i] = keep - h
            down = f().item()
            flat[i] = keep
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(a_flat[i]), abs(numeric), rel_floor)
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
    return worst
