"""Reference versions of the fused ops, composed from generic tape ops.

`slice_last` and `concat_last` are the generic last-axis ops the model
used before `glu_gelu` and `rotary` were fused; they live on here only
to build the references the fused ops are checked against, bit for bit
in float32. `glu_gelu`, `rotary` and `matmul_t` share the fused ops'
signatures so tests can monkeypatch them into `cramlab.model`.
"""

import numpy as np

from cramlab import tensor
from cramlab.tensor import Tensor, _check_dtypes, _make, add, gelu, mul, scale


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


def glu_gelu(h: Tensor) -> Tensor:
    """value * gelu(gate) as two slices, a gelu and a mul."""
    half = h.shape[-1] // 2
    return mul(slice_last(h, 0, half), gelu(slice_last(h, half, h.shape[-1])))


def rotary(t: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """t*cos + rotate_half(t)*sin as slices, a negation, a concat, muls and an add."""
    dh = t.shape[-1]
    half = dh // 2
    a = slice_last(t, 0, half)
    b = slice_last(t, half, dh)
    rotated = concat_last(scale(b, -1.0), a)
    return add(mul(t, Tensor(cos.astype(t.dtype))), mul(rotated, Tensor(sin.astype(t.dtype))))


def matmul_t(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b.T as its own op, then the bias as a separate add."""
    out = tensor.matmul_t(a, b)
    return out if bias is None else add(out, bias)
