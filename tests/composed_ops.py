"""Reference versions of the fused ops, composed from generic tape ops.

`slice_last`, `concat_last`, `permute` and `scale` are the generic ops
the model used before `glu_gelu` and `attend` were fused; they live on
here only to build the references the fused ops are checked against,
bit for bit in float32. `rotary` is the position rotation `attend`
applies to q and k, composed the same way. `glu_gelu`, `attend` and
`matmul_t` share the fused ops' signatures so tests can monkeypatch them
into `cramlab.model`.
"""

import math
from typing import Sequence

import numpy as np

from cramlab import tensor
from cramlab.tensor import (
    Tensor, _check_dtypes, _make, add, gelu, matmul, mul, reshape, softmax,
)


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


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def bwd(out):
        def fn():
            a.accumulate_grad(out.grad.transpose(inverse))
        return fn

    return _make("permute", np.ascontiguousarray(a.data.transpose(axes)), (a,), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def bwd(out):
        def fn():
            a.accumulate_grad(out.grad * np.asarray(s, dtype=a.dtype))
        return fn

    return _make("scale", a.data * np.asarray(s, dtype=a.dtype), (a,), bwd)


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


def attend(q: Tensor, k: Tensor, v: Tensor, seq_len: int, heads: int,
           key_bias: np.ndarray | None = None,
           rot: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """Per-head permuted copies, rotary, q @ permuted k, scale, bias add,
    softmax, the context product and a permute back."""
    rows, d = q.shape
    B, S, H, dh = rows // seq_len, seq_len, heads, d // heads

    def heads_of(t: Tensor) -> Tensor:
        return permute(reshape(t, (B, S, H, dh)), (0, 2, 1, 3))

    qh, kh, vh = heads_of(q), heads_of(k), heads_of(v)
    if rot is not None:
        qh, kh = rotary(qh, *rot), rotary(kh, *rot)
    scores = scale(matmul(qh, permute(kh, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    if key_bias is not None:
        scores = add(scores, Tensor(np.asarray(key_bias, dtype=q.dtype)))
    ctx = matmul(softmax(scores, axis=-1), vh)
    return reshape(permute(ctx, (0, 2, 1, 3)), (rows, d))


def matmul_t(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b.T as its own op, then the bias as a separate add."""
    out = tensor.matmul_t(a, b)
    return out if bias is None else add(out, bias)
