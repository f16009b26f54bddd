"""Reference versions of the fused ops, composed from generic tape ops.

`slice_last`, `concat_last`, `permute`, `scale` and the batched
`matmul` are the generic ops the model used before `glu_gelu` and
`attend` were fused; they live on here only to build the references the
fused ops are checked against, bit for bit in float32. `rotary` is the position rotation `attend`
applies to q and k, composed the same way. `glu_gelu`, `attend`,
`matmul` and `matmul_t` share the fused ops' signatures so tests can
monkeypatch them into `cramlab.model`; the two products add their
optional bias as a separate `add`.

`adam_step`, `truncated_normal` and `save_checkpoint` are the
whole-array forms of the passes that now stream parameters through
cache-sized blocks, and `whole_layer_norm`, `whole_gelu`,
`whole_glu_gelu` and `whole_attend` those of the activation ops that
now stream rows; the streamed versions are checked against them byte
for byte (the GELU pair with the streamed Phi patched to scipy's ndtr,
which the whole-array forms use).

Unlike the ops in `cramlab.tensor`, the closures here keep the Tensors
they were given, which a reference may afford. Like them, each closure
returns one gradient per input, in input order, and leaves skipping,
unbroadcasting and accumulating to `Tape.backward`.

`finite_diff_check` is the float64 gradient oracle the op and block
tests are built on.
"""

import math
import os
import zlib
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import ndtr

from cramlab import checkpoint, tensor
from cramlab.errors import ContractError
from cramlab.tensor import (
    _SQRT_2PI, Tape, Tensor, _check_dtypes, _make, _rotate_half, add, gelu, mul,
    reshape, softmax,
)


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[..., start:stop] = g
        return (ga,)

    return _make("slice_last", np.ascontiguousarray(a.data[..., start:stop]), (a,), bwd)


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("concat_last", a, b)
    na = a.shape[-1]

    return _make("concat_last", np.concatenate([a.data, b.data], axis=-1), (a, b),
                 lambda g: (g[..., :na], g[..., na:]))


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    return _make("permute", np.ascontiguousarray(a.data.transpose(axes)), (a,),
                 lambda g: (g.transpose(inverse),))


def scale(a: Tensor, s: float) -> Tensor:
    s = np.asarray(float(s), dtype=a.dtype)
    return _make("scale", a.data * s, (a,), lambda g: (g * s,))


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product; 2-D, or batched with identical leading dims. The
    bias, if any, is a separate add."""
    _check_dtypes("matmul", a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ContractError("matmul requires at least 2-D operands")
    if a.shape[-1] != b.shape[-2]:
        raise ContractError(f"matmul inner dims {a.shape} @ {b.shape}")
    if a.data.ndim != b.data.ndim and b.data.ndim != 2:
        raise ContractError("matmul batch ranks differ")
    if a.data.ndim == b.data.ndim and a.shape[:-2] != b.shape[:-2]:
        raise ContractError("matmul batch dims differ")

    def bwd(g):
        return g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g

    out = _make("matmul", a.data @ b.data, (a, b), bwd)
    return out if bias is None else add(out, bias)


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


def whole_layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """layer_norm as whole-array expressions."""
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xhat = centered * inv

    def bwd(g):
        gxhat = g * gain.data
        m1 = gxhat.mean(axis=-1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
        return (inv * (gxhat - m1 - xhat * m2),
                (g * xhat).reshape(-1, x.shape[-1]).sum(axis=0),
                g.reshape(-1, x.shape[-1]).sum(axis=0))

    return _make("layer_norm", xhat * gain.data + bias.data, (x, gain, bias), bwd)


def _whole_gelu_grad(x, phi_cdf, g):
    pdf = x * x
    pdf *= -0.5
    np.exp(pdf, out=pdf)
    pdf /= np.asarray(_SQRT_2PI, dtype=x.dtype)
    pdf *= x
    pdf += phi_cdf
    pdf *= g
    return pdf


def whole_gelu(x: Tensor) -> Tensor:
    """gelu with ndtr over the whole array."""
    phi_cdf = ndtr(x.data).astype(x.dtype, copy=False)

    return _make("gelu", x.data * phi_cdf, (x,),
                 lambda g: (_whole_gelu_grad(x.data, phi_cdf, g),))


def whole_glu_gelu(h: Tensor) -> Tensor:
    """glu_gelu with ndtr over whole halves, keeping gelu(gate) for backward."""
    value, gate = np.split(h.data, 2, axis=-1)
    phi_cdf = ndtr(gate).astype(h.dtype, copy=False)
    act = gate * phi_cdf

    def bwd(g):
        return (np.concatenate([g * act, _whole_gelu_grad(gate, phi_cdf, g * value)], axis=-1),)

    return _make("glu_gelu", value * act, (h,), bwd)


def whole_attend(q: Tensor, k: Tensor, v: Tensor, seq_len: int, heads: int,
                 key_bias: np.ndarray | None = None,
                 rot: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """attend over all sequences at once, keeping the per-head q, k^T
    and v for backward."""
    rows, d = q.shape
    B, S, H, dh = rows // seq_len, seq_len, heads, d // heads
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=q.dtype)
    if rot is not None:
        cos, sin = (np.asarray(t, dtype=q.dtype) for t in rot)

    def heads_of(t):
        return np.ascontiguousarray(t.reshape(B, S, H, dh).transpose(0, 2, 1, 3))

    def rotate(h):
        return h if rot is None else h * cos + _rotate_half(h) * sin

    def unrotate(g):
        return g if rot is None else g * cos - _rotate_half(g * sin)

    def merge(h):
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
        dv = merge(np.swapaxes(probs, -1, -2) @ g)
        gs = g @ np.swapaxes(vh, -1, -2)
        gs -= (gs * probs).sum(axis=-1, keepdims=True)
        gs *= probs
        gs *= scale
        dq = merge(unrotate(gs @ np.swapaxes(kt, -1, -2)))
        gk = (np.swapaxes(qh, -1, -2) @ gs).transpose(0, 1, 3, 2)
        return dq, merge(unrotate(gk)), dv

    return _make("attend", merge(probs @ vh), (q, k, v), bwd)


def adam_step(params, state, lr, cfg, decay_exempt=None) -> None:
    """Adam as whole-array expressions, each making parameter-sized temporaries."""
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        if cfg.weight_decay and not (decay_exempt and decay_exempt(name)):
            p.data *= 1.0 - lr * cfg.weight_decay
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


def truncated_normal(shape, std, rng, dtype=np.float32):
    """One full-size float64 draw, redrawn in place, cast at the end."""
    out = rng.normal(0.0, std, size=shape)
    flat = out.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2.0 * std)
    while bad.size:
        redraw = rng.normal(0.0, std, size=bad.size)
        flat[bad] = redraw
        bad = bad[np.abs(redraw) > 2.0 * std]
    return out.astype(dtype)


def save_checkpoint(path, arrays, config=None) -> None:
    """The writer that copies every array with tobytes and joins the copies."""
    lines = [checkpoint._HEADER]
    for key in sorted(config or {}):
        lines.append(f"config {key} = {(config or {})[key]}")
    offset = 0
    chunks = []
    for name, arr in arrays.items():
        a = np.ascontiguousarray(arr, dtype="<f4")
        shape = "x".join(str(d) for d in a.shape) or "1"
        lines.append(f"tensor {name} {shape} {offset}")
        chunks.append(a.tobytes())
        offset += len(chunks[-1])
    blob = b"".join(chunks)
    lines.append(f"blob {len(blob)} {zlib.crc32(blob)}")
    with open(path + ".tmp", "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(checkpoint.blob_path(path) + ".tmp", "wb") as fh:
        fh.write(blob)
    os.replace(checkpoint.blob_path(path) + ".tmp", checkpoint.blob_path(path))
    os.replace(path + ".tmp", path)


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
