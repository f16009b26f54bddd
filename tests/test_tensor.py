"""Tensor core: frozen numeric examples, gradient oracles, tape rules."""

import math

import numpy as np
import pytest

from cramlab.errors import ContractError
from cramlab.tensor import (
    Tape, Tensor, add, backward, concat_last, cross_entropy_from_logits,
    dropout, finite_diff_check, gather_rows, gelu, layer_norm, matmul,
    matmul_t, mul, permute, reshape, scale, set_finite_checks, slice_last,
    softmax, tmean, truncated_normal, tsum,
)

F64 = np.float64


def ones(shape):
    return Tensor(np.ones(shape, np.float32))


# -- frozen value oracles ---------------------------------------------------

def test_layer_norm_frozen_row():
    x = Tensor(np.array([[1.0, 2.0, 3.0]], np.float32))
    g = ones(3)
    b = Tensor(np.zeros(3, np.float32))
    out = layer_norm(x, g, b, 1e-12).data[0]
    np.testing.assert_allclose(out, [-1.22474, 0.0, 1.22474], atol=1e-5)


def test_softmax_frozen_row():
    out = softmax(Tensor(np.array([[1.0, 2.0, 3.0]], np.float32))).data[0]
    np.testing.assert_allclose(out, [0.09003057, 0.24472847, 0.66524096],
                               atol=1e-6)


def test_gelu_frozen_points():
    x = Tensor(np.array([-1.0, 0.0, 1.0], F64))
    out = gelu(x).data
    assert out[1] == 0.0
    assert abs(out[2] - 0.8413447460685429) < 1e-12
    # exact-erf symmetry: gelu(-x) = -x * (1 - cdf(x))
    assert abs(out[0] + (1.0 - 0.8413447460685429)) < 1e-12


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((1, 32768), np.float32))
    loss = cross_entropy_from_logits(logits, np.array([7]))
    assert abs(loss.item() - math.log(32768)) < 1e-4


def test_cross_entropy_frozen_row():
    logits = Tensor(np.array([[1.0, 2.0, 3.0]], F64))
    loss = cross_entropy_from_logits(logits, np.array([2]))
    # 3 - logsumexp([1,2,3])
    assert abs(loss.item() - 0.40760596444438079) < 1e-12


def test_cross_entropy_confident_logit_near_zero():
    row = np.zeros((1, 8), F64)
    row[0, 3] = 100.0
    loss = cross_entropy_from_logits(Tensor(row), np.array([3]))
    assert loss.item() < 1e-12


def test_matmul_frozen_example():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], np.float32))
    b = Tensor(np.array([[1.0], [1.0]], np.float32))
    np.testing.assert_array_equal(matmul(a, b).data, [[3.0], [7.0]])


def test_matmul_grad_closed_form():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    with Tape() as tape:
        tape.backward(tsum(matmul(a, b)))
    np.testing.assert_allclose(a.grad, np.ones((4, 3)) @ b.data.T, rtol=1e-12)
    np.testing.assert_allclose(b.grad, a.data.T @ np.ones((4, 3)), rtol=1e-12)


# -- invariants -------------------------------------------------------------

def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = Tensor(rng.normal(scale=5.0, size=(6, 17)).astype(np.float32))
        y = softmax(x).data
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)
        assert (y >= 0).all() and (y <= 1).all()


def test_layer_norm_standardizes_rows():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(scale=3.0, size=(32, 64)))
    out = layer_norm(x, Tensor(np.ones(64, F64)), Tensor(np.zeros(64, F64)),
                     1e-12).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-6
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-5


def test_determinism_same_inputs_same_bits():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 9)).astype(np.float32)
    a = softmax(Tensor(x)).data
    b = softmax(Tensor(x.copy())).data
    assert a.tobytes() == b.tobytes()


# -- dtype and finiteness rules ---------------------------------------------

def test_binary_op_rejects_mixed_dtypes():
    with pytest.raises(ContractError):
        add(Tensor(np.ones(3, np.float32)), Tensor(np.ones(3, F64)))


def test_int_input_coerced_to_float32_f64_preserved():
    assert Tensor(np.arange(3)).data.dtype == np.float32
    assert Tensor(np.arange(3.0)).data.dtype == F64


def test_nonfinite_result_raises():
    big = Tensor(np.array([3e38], np.float32))
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        add(big, big)


def test_finite_checks_toggle():
    big = Tensor(np.array([3e38], np.float32))
    set_finite_checks(False)
    try:
        with np.errstate(over="ignore"):
            out = add(big, big)
        assert np.isinf(out.data).all()
    finally:
        set_finite_checks(True)
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        add(big, big)


# -- tape semantics ---------------------------------------------------------

def test_backward_populates_trivial_grads():
    x = Tensor(np.arange(4.0), requires_grad=True)
    with Tape() as tape:
        tape.backward(tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones(4))

    y = Tensor(np.arange(4.0), requires_grad=True)
    with Tape() as tape:
        tape.backward(tsum(mul(y, y)))
    np.testing.assert_allclose(y.grad, 2.0 * y.data)


def test_grad_accumulates_over_reuse():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        tape.backward(add(tsum(x), tsum(x)))
    np.testing.assert_array_equal(x.grad, 2.0 * np.ones(3))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
        with pytest.raises(ContractError):
            tape.backward(y)


def test_second_backward_is_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        loss = tsum(x)
        tape.backward(loss)
        with pytest.raises(ContractError):
            tape.backward(loss)


def test_backward_without_tape_is_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = tsum(x)
    with pytest.raises(ContractError):
        backward(loss)


def test_free_backward_finds_recording_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape():
        loss = tsum(mul(x, x))
        backward(loss)
    np.testing.assert_allclose(x.grad, 2.0 * np.ones(3))


def test_broadcast_gradients_reduce_to_input_shape():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        tape.backward(tsum(add(a, b)))
    assert a.grad.shape == (2, 3)
    np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])


def test_operator_sugar_matches_functions():
    x = Tensor(np.arange(1.0, 4.0), requires_grad=True)
    with Tape() as tape:
        loss = ((x * 2.0 - x) + (-x)).sum()
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.zeros(3))
    assert loss.item() == 0.0


# -- finite-difference oracles (double precision) ----------------------------

def _fd(f, params, tol):
    assert finite_diff_check(f, params) < tol


def test_fd_quadratic():
    x = Tensor(np.arange(1.0, 5.0), requires_grad=True)
    _fd(lambda: tsum(mul(x, x)), [x], 1e-8)


def test_fd_elementwise_ops():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=4), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    _fd(lambda: tsum(mul(add(x, y), w)), [x, y, w], 1e-6)
    _fd(lambda: tmean(scale(x, -1.7)), [x], 1e-6)
    _fd(lambda: tsum(gelu(x)), [x], 1e-6)


def test_fd_matmul_family():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    c = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    k = Tensor(rng.normal(size=(4, 3)))
    kt = Tensor(rng.normal(size=(4, 6)))
    _fd(lambda: tsum(mul(matmul(a, b), k)), [a, b], 1e-6)
    _fd(lambda: tsum(mul(matmul_t(a, c), kt)), [a, c], 1e-6)


def test_fd_batched_matmul():
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 5, 2)), requires_grad=True)
    k = Tensor(rng.normal(size=(2, 3, 4, 2)))
    _fd(lambda: tsum(mul(matmul(a, b), k)), [a, b], 1e-6)


def test_fd_shape_ops():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    k1 = Tensor(rng.normal(size=(6, 4)))
    k2 = Tensor(rng.normal(size=(4, 2, 3)))
    _fd(lambda: tsum(mul(reshape(x, (6, 4)), k1)), [x], 1e-6)
    _fd(lambda: tsum(mul(permute(x, (2, 0, 1)), k2)), [x], 1e-6)


def test_fd_gather_with_duplicate_rows():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    k = Tensor(rng.normal(size=(4, 3)))
    idx = np.array([0, 2, 2, 5])
    _fd(lambda: tsum(mul(gather_rows(x, idx), k)), [x], 1e-6)


def test_fd_slice_concat():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
    k = Tensor(rng.normal(size=(2, 8)))
    _fd(lambda: tsum(mul(concat_last(slice_last(x, 4, 8),
                                     slice_last(x, 0, 4)), k)), [x], 1e-6)


def test_fd_normalization_ops():
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(3, 7)), requires_grad=True)
    g = Tensor(rng.normal(size=7) + 2.0, requires_grad=True)
    b = Tensor(rng.normal(size=7), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 7)))
    _fd(lambda: tsum(mul(layer_norm(x, g, b, 1e-12), k)), [x, g, b], 1e-6)
    _fd(lambda: tsum(mul(softmax(x), k)), [x], 1e-6)


def test_fd_softmax_cross_entropy_composite():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(4, 9)), requires_grad=True)
    labels = np.array([1, 0, 8, 3])
    _fd(lambda: cross_entropy_from_logits(x, labels), [x], 1e-6)


# -- dropout and init -------------------------------------------------------

def test_dropout_rate_zero_is_identity_and_uses_no_randomness():
    rng = np.random.default_rng(12)
    state = rng.bit_generator.state
    x = Tensor(np.arange(6.0))
    out = dropout(x, 0.0, rng)
    np.testing.assert_array_equal(out.data, x.data)
    assert rng.bit_generator.state == state


def test_dropout_inverted_scaling_and_grad_mask():
    rng = np.random.default_rng(13)
    x = Tensor(np.ones((200, 50)), requires_grad=True)
    with Tape() as tape:
        out = dropout(x, 0.25, rng)
        tape.backward(tsum(out))
    kept = out.data != 0
    assert abs(kept.mean() - 0.75) < 0.02
    np.testing.assert_allclose(out.data[kept], 1.0 / 0.75, rtol=1e-6)
    np.testing.assert_allclose(x.grad[kept], 1.0 / 0.75, rtol=1e-6)
    assert (x.grad[~kept] == 0).all()


def test_dropout_rate_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ContractError):
        dropout(ones(3), 1.0, rng)
    with pytest.raises(ContractError):
        dropout(ones(3), -0.1, rng)


def test_truncated_normal_respects_bounds_and_seed():
    rng = np.random.default_rng(14)
    draws = truncated_normal((200, 40), 0.02, rng)
    assert np.abs(draws).max() <= 2 * 0.02
    assert abs(draws.std() - 0.02) < 0.003
    again = truncated_normal((200, 40), 0.02, np.random.default_rng(14))
    assert draws.tobytes() == again.tobytes()


def _truncated_normal_full_rescan(shape, std, rng, dtype=np.float32):
    """Reference: the original loop, which rescans every element each round."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out.astype(dtype)


@pytest.mark.parametrize("shape, std, seed, dtype", [
    ((300, 200), 0.02, 15, np.float32),
    ((64, 33, 3), 1.0, 16, np.float64),
    ((7,), 0.02, 17, np.float32),
    ((), 0.5, 18, np.float32),
])
def test_truncated_normal_matches_full_rescan_reference(shape, std, seed, dtype):
    got = truncated_normal(shape, std, np.random.default_rng(seed), dtype)
    want = _truncated_normal_full_rescan(shape, std, np.random.default_rng(seed), dtype)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_gather_rows_out_of_range():
    with pytest.raises(IndexError):
        gather_rows(ones((3, 2)), np.array([0, 3]))


def test_cross_entropy_label_out_of_range():
    with pytest.raises(IndexError):
        cross_entropy_from_logits(ones((2, 4)), np.array([0, 4]))
