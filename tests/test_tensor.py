"""Tensor core: frozen numeric examples, gradient oracles, tape rules."""

import collections
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.special import ndtr

import composed_ops
from cramlab import model as model_module
from cramlab import tensor
from cramlab.config import PRESETS, RunConfig, apply_overrides
from cramlab.errors import ContractError
from cramlab.model import build, rotary_tables
from cramlab.tensor import (
    STREAM_BLOCK, Tape, Tensor, add, attend, cross_entropy_from_logits,
    decoder_cross_entropy, dropout, gather_rows, gelu, glu_gelu, layer_norm, matmul,
    matmul_t, mul, reshape, set_finite_checks, softmax, truncated_normal, tsum,
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


def test_matmul_takes_2d_operands_only():
    rng = np.random.default_rng(0)
    a2, b2 = Tensor(rng.normal(size=(4, 5))), Tensor(rng.normal(size=(5, 3)))
    a3, b3 = Tensor(rng.normal(size=(2, 4, 5))), Tensor(rng.normal(size=(2, 5, 3)))
    for a, b in ((a3, b2), (a2, b3), (a3, b3)):
        with pytest.raises(ContractError, match="2-D"):
            matmul(a, b)
    with pytest.raises(ContractError, match="inner dims"):
        matmul(b2, b2)


def test_matmul_grad_closed_form():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    bias = Tensor(rng.normal(size=3), requires_grad=True)
    with Tape() as tape:
        out = matmul(a, b, bias)
        assert len(tape) == 1  # the bias is added inside the product's record
        tape.backward(tsum(out))
    np.testing.assert_array_equal(out.data, a.data @ b.data + bias.data)
    np.testing.assert_allclose(a.grad, np.ones((4, 3)) @ b.data.T, rtol=1e-12)
    np.testing.assert_allclose(b.grad, a.data.T @ np.ones((4, 3)), rtol=1e-12)
    np.testing.assert_array_equal(bias.grad, np.full(3, 4.0))


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


def test_broadcast_gradients_reduce_to_input_shape():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        tape.backward(tsum(add(a, b)))
    assert a.grad.shape == (2, 3)
    np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])


def test_tape_applies_every_gradient_rule():
    # The closure returns g for each input; the tape skips the input that
    # wants no gradient, copies the second same-shape g and sums g down
    # to the (1, d) input's shape.
    w = np.arange(6.0).reshape(2, 3)
    a, a2, b = (Tensor(np.zeros(shape), requires_grad=True) for shape in ((2, 3), (2, 3), (1, 3)))
    frozen = Tensor(np.zeros((2, 3)))
    with Tape() as tape:
        out = tensor._make("fan_out", np.zeros((2, 3)), (a, frozen, a2, b), lambda g: (g,) * 4)
        tape.backward(tsum(mul(out, Tensor(w))))
    np.testing.assert_array_equal(a.grad, w)
    np.testing.assert_array_equal(a2.grad, w)
    np.testing.assert_array_equal(b.grad, w.sum(axis=0, keepdims=True))
    assert frozen.grad is None
    grads = (a.grad, a2.grad, b.grad)
    assert not any(np.may_share_memory(x, y) for i, x in enumerate(grads) for y in grads[i + 1:])


def test_tape_adds_row_gradients_into_the_existing_buffer():
    rows, values = np.array([3, 1]), np.array([[1.0, 2.0], [3.0, 4.0]])
    table, fresh = (Tensor(np.zeros((4, 2)), requires_grad=True) for _ in range(2))
    table.grad = buf = np.ones((4, 2))
    with Tape() as tape:
        out = tensor._make("rows", np.zeros(()), (table, fresh),
                           lambda g: ((rows, values), (rows, values)))
        tape.backward(out)
    assert table.grad is buf
    np.testing.assert_array_equal(buf, [[1, 1], [4, 5], [1, 1], [2, 3]])
    np.testing.assert_array_equal(fresh.grad, [[0, 0], [3, 4], [0, 0], [1, 2]])


def test_operator_sugar_matches_functions():
    # The benchmark's replay scales each micro-batch's loss as `loss * (1.0 / acc)`.
    x = Tensor(np.arange(1.0, 4.0), requires_grad=True)
    with Tape() as tape:
        loss = tsum(x * 0.5)
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.full(3, 0.5))
    assert loss.item() == 3.0


# -- backward frees as it goes ------------------------------------------------

def _tiny_model(preset, num_layers=2, hidden_dim=16, vocab_size=64, seq_len=8):
    cfg = RunConfig()
    apply_overrides(cfg, PRESETS[preset])
    m = cfg.model
    m.num_layers, m.hidden_dim, m.num_heads, m.ffn_dim = num_layers, hidden_dim, 2, 2 * hidden_dim
    m.vocab_size, m.seq_len = vocab_size, seq_len
    return build(m, seed=0)


def _record_loss(model, batch, seed=13):
    ids = np.random.default_rng(seed).integers(0, model.config.vocab_size,
                                               (batch, model.config.seq_len))
    positions = np.arange(0, ids.size, 3)
    tape = Tape()
    with tape:
        logits = model.logits(ids, masked_positions=positions)
        loss = cross_entropy_from_logits(logits, ids.ravel()[positions])
    return tape, loss


@pytest.mark.parametrize("preset", ["crammed", "original_arch"])
def test_backward_keeps_only_leaf_grads(preset, monkeypatch):
    model = _tiny_model(preset)
    tape, loss = _record_loss(model, 4)
    slots = [out for out, _, _ in tape._records]
    assert not any(isinstance(slot, Tensor) for slot in slots)
    tape.backward(loss)
    assert len(tape) == 0
    assert all(slot.grad is None for slot in slots)
    grads = {name: p.grad for name, p in model.params.items()}

    # Reference: the same backward with every op output's gradient kept.
    model.zero_grads()
    tape, loss = _record_loss(model, 4)
    slots = [out for out, _, _ in tape._records]
    monkeypatch.setattr(tensor.Slot, "zero_grad", lambda self: None)
    tape.backward(loss)
    assert sum(slot.grad is not None for slot in slots) > 1
    for name, p in model.params.items():
        assert grads[name] is not None and np.array_equal(grads[name], p.grad), name


def _closure_slots(fn):
    """Every Slot (Tensors included) a closure reaches through its cells,
    tuples and lists of them and nested closures."""
    found, seen, stack = [], set(), [fn]
    while stack:
        f = stack.pop()
        for cell in f.__closure__ or ():
            try:
                value = cell.cell_contents
            except ValueError:  # a name the enclosing function never bound
                continue
            for item in value if isinstance(value, (tuple, list)) else (value,):
                if isinstance(item, tensor.Slot):
                    found.append(item)
                elif callable(item) and getattr(item, "__closure__", None) and id(item) not in seen:
                    seen.add(id(item))
                    stack.append(item)
    return found


@pytest.mark.parametrize("preset", ["crammed", "original_arch"])
def test_forward_frees_what_no_backward_reads(preset, monkeypatch):
    # Closures and rebuilds hold only arrays, never a Tensor or a Slot.
    # No backward reads a residual sum or the logits once the loss has
    # their exponentials, and the products rebuild a norm or activation
    # output instead of keeping it, so a recorded forward keeps none of
    # them. Each watch is on the array that owns the output's memory,
    # which outlives every view of it.
    model = _tiny_model(preset)
    watched = []

    def watching(op):
        def run(*args):
            out = op(*args)
            owner = out.data if out.data.base is None else out.data.base
            watched.append((op.__name__, weakref.ref(owner)))
            return out
        return run

    for name in ("add", "layer_norm", "gelu", "glu_gelu"):
        monkeypatch.setattr(model_module, name, watching(getattr(model_module, name)))
    ids = np.random.default_rng(13).integers(0, model.config.vocab_size,
                                             (4, model.config.seq_len))
    positions = np.arange(0, ids.size, 3)
    with Tape() as tape:
        logits = model.logits(ids, masked_positions=positions)
        watched.append(("logits", weakref.ref(logits.data)))
        loss = cross_entropy_from_logits(logits, ids.ravel()[positions])
        del logits
    cfg = model.config
    assert {name for name, _ in watched} == (
        {"add", "layer_norm", cfg.ffn_kind, "logits"} | ({"gelu"} if cfg.nonlinear_head else set()))
    # Every residual sum, every block's norms and every FFN is watched.
    count = collections.Counter(name for name, _ in watched)
    assert count["add"] > 2 * cfg.num_layers
    assert count["layer_norm"] >= 2 * cfg.num_layers and count[cfg.ffn_kind] >= cfg.num_layers
    assert [name for name, ref in watched if ref() is not None] == []
    assert [t for _, _, fn in tape._records for t in _closure_slots(fn)] == []
    # The search does find what a closure holds: the composed reference
    # ops keep their input Tensors.
    with Tape() as probe:
        composed_ops.slice_last(Tensor(np.ones(2), requires_grad=True), 0, 1)
    assert len(_closure_slots(probe._records[0][2])) == 1
    tape.backward(loss)
    assert all(p.grad is not None for p in model.params.values())


@pytest.mark.parametrize("preset", ["crammed", "original_arch"])
def test_accumulated_micro_batches_add_into_first_grad_buffers(preset, monkeypatch):
    model = _tiny_model(preset)
    alone = []
    for seed in (13, 14):
        model.zero_grads()
        tape, loss = _record_loss(model, 4, seed)
        tape.backward(loss)
        alone.append({name: p.grad for name, p in model.params.items()})

    model.zero_grads()
    tape, loss = _record_loss(model, 4, 13)
    tape.backward(loss)
    first = {name: p.grad for name, p in model.params.items()}
    tape, loss = _record_loss(model, 4, 14)
    tape.backward(loss)
    fresh = [name for name, p in model.params.items() if p.grad is not first[name]]
    assert fresh == []

    # Every parameter the tape reaches once per micro-batch sums to
    # first + second. The tied table adds its lookup rows after the
    # decoder's gradient, so its reference is the allocating sum below.
    tied = "tok_emb"
    assert tied in model.params and model.config.tie_embeddings
    for name, p in model.params.items():
        if name != tied:
            assert np.array_equal(p.grad, alone[0][name] + alone[1][name]), name

    # Reference: the same two micro-batches, each contribution summed
    # into a new buffer, so no aliasing can leak into the result. Slot
    # is the base class, so leaves and op-output slots both allocate.
    # A (rows, values) gradient is expanded to a dense one first.
    def allocating(self, g):
        if isinstance(g, tuple):
            rows, values = g
            g = np.zeros(self.shape, values.dtype)
            g[rows] = values
        self.grad = g.copy() if self.grad is None else self.grad + g

    monkeypatch.setattr(tensor.Slot, "accumulate_grad", allocating)
    model.zero_grads()
    for seed in (13, 14):
        tape, loss = _record_loss(model, 4, seed)
        tape.backward(loss)
    for name, p in model.params.items():
        assert np.array_equal(first[name], p.grad), name


def test_backward_peak_stays_near_one_logits_buffer():
    # original_arch decodes only the masked rows, so backward never needs
    # a dense (B*S, V) buffer. Keeping every op output's gradient until
    # the end would hold about seven of them at this shape.
    batch, seq_len, vocab = 8, 16, 512
    model = _tiny_model("original_arch", num_layers=3, hidden_dim=32,
                        vocab_size=vocab, seq_len=seq_len)
    tracemalloc.start()
    try:
        tape, loss = _record_loss(model, batch)
        end_of_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense_logits = batch * seq_len * vocab * 4
    assert peak - end_of_forward < 2 * dense_logits


def test_recorded_masked_loss_holds_one_logits_buffer():
    # At a vocabulary much wider than the model, the masked rows' logits
    # are nearly all a recorded forward allocates. The unfused pair holds
    # the logits and their shifted copy at once; Model.loss holds one
    # buffer, which backward turns into the logits' gradient.
    model = _tiny_model("crammed", num_layers=1, vocab_size=16384)
    ids = np.random.default_rng(13).integers(0, model.config.vocab_size,
                                             (4, model.config.seq_len))
    positions = np.arange(0, ids.size, 3)
    labels = ids.ravel()[positions]
    logits_bytes = positions.size * model.config.vocab_size * 4

    def forward_peak(forward):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                loss = forward()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        tape.backward(loss)
        model.zero_grads()
        return peak, loss.data

    fused, fused_loss = forward_peak(lambda: model.loss(ids, positions, labels))
    pair, pair_loss = forward_peak(lambda: cross_entropy_from_logits(
        model.logits(ids, masked_positions=positions), labels))
    assert fused_loss.tobytes() == pair_loss.tobytes()
    assert fused < 1.5 * logits_bytes < 2 * logits_bytes <= pair


# -- finite-difference oracles (double precision) ----------------------------

def _fd(f, params, tol):
    assert composed_ops.finite_diff_check(f, params) < tol


def test_fd_quadratic():
    x = Tensor(np.arange(1.0, 5.0), requires_grad=True)
    _fd(lambda: tsum(mul(x, x)), [x], 1e-8)


def test_fd_elementwise_ops():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=4), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    _fd(lambda: tsum(mul(add(x, y), w)), [x, y, w], 1e-6)
    _fd(lambda: tsum(composed_ops.scale(x, -1.7)), [x], 1e-6)
    _fd(lambda: tsum(gelu(x)), [x], 1e-6)


def test_fd_matmul_family():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    c = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    k = Tensor(rng.normal(size=(4, 3)))
    kt = Tensor(rng.normal(size=(4, 6)))
    bias = Tensor(rng.normal(size=6), requires_grad=True)
    bias3 = Tensor(rng.normal(size=3), requires_grad=True)
    _fd(lambda: tsum(mul(matmul(a, b), k)), [a, b], 1e-6)
    _fd(lambda: tsum(mul(matmul(a, b, bias3), k)), [a, b, bias3], 1e-6)
    _fd(lambda: tsum(mul(matmul_t(a, c), kt)), [a, c], 1e-6)
    _fd(lambda: tsum(mul(matmul_t(a, c, bias), kt)), [a, c, bias], 1e-6)
    rows = np.array([3, 0, 3])  # unsorted, with a repeat; row 1 never decoded
    kr = Tensor(rng.normal(size=(3, 6)))
    _fd(lambda: tsum(mul(matmul_t(gather_rows(a, rows), c), kr)), [a, c], 1e-6)
    _fd(lambda: tsum(mul(matmul_t(gather_rows(a, rows), c, bias), kr)), [a, c, bias], 1e-6)


def test_tied_table_gradient_matches_dense_scatter():
    # The lookup's gradient is added row by row into the decoder's fresh
    # gradient buffer; it must equal the dense scatter summed onto it.
    rng = np.random.default_rng(14)
    table = Tensor(rng.normal(size=(50, 8)).astype(np.float32), requires_grad=True)
    idx = rng.integers(0, 20, 64)  # repeats, and rows 20-49 never looked up
    k = rng.normal(size=(64, 50)).astype(np.float32)
    with Tape() as tape:
        h = gather_rows(table, idx)
        tape.backward(tsum(mul(matmul_t(h, table), Tensor(k))))
    dense = np.zeros_like(table.data)
    np.add.at(dense, idx, k @ table.data)
    assert np.array_equal(table.grad, k.T @ h.data + dense)


@pytest.mark.parametrize("idx", [
    np.array([0, 3, 4, 9, 17, 29]),              # strictly increasing
    np.array([[2, 5, 5], [0, 29, 2]]),           # repeated, unsorted, 2-D
    np.array([7]),
    np.array([], dtype=np.int64),
], ids=["unique", "repeated", "single", "empty"])
def test_gather_rows_scatter_matches_add_at_bytes(idx):
    # A table's first gradient is the dense scatter of the upstream rows;
    # its bytes, signed zeros included, must equal np.add.at's.
    rng = np.random.default_rng(16)
    table = Tensor(rng.normal(size=(30, 6)).astype(np.float32), requires_grad=True)
    k = rng.normal(size=(idx.size, 6)).astype(np.float32)
    k[:, 0] = -0.0
    with Tape() as tape:
        out = gather_rows(table, idx)
        tape.backward(tsum(mul(reshape(out, (idx.size, 6)), Tensor(k))))
    ref = np.zeros_like(table.data)
    np.add.at(ref, idx.ravel(), k)
    assert table.grad.tobytes() == ref.tobytes()


def _dot(t, k):
    return tsum(mul(t, k))


def _fan_out_cases():
    """Name -> (leaves, loss builder) where one op output's gradient
    reaches several leaves, by reference, as a view or as a copy. Each
    leaf also takes a contribution after the shared one, which in-place
    accumulation would leak into any leaf sharing its buffer."""
    rng = np.random.default_rng(15)

    def leaf(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    def const(*shape):
        return Tensor(rng.normal(size=shape))

    def add_self():
        x, w, k = leaf(3, 4), leaf(3, 4), const(3, 4)
        return [x, w], lambda: add(_dot(x, k), _dot(add(x, x), w))

    def residual():
        x, w1, w2, k = leaf(3, 4), leaf(4, 4), leaf(4, 4), const(3, 4)

        def f():
            h = add(x, matmul(x, w1))
            return _dot(add(h, matmul(h, w2)), k)
        return [x, w1, w2], f

    def reshape_add():
        x, y, k1, k2 = leaf(2, 3, 4), leaf(6, 4), const(6, 4), const(6, 4)
        return [x, y], lambda: add(_dot(y, k1), _dot(add(reshape(x, (6, 4)), y), k2))

    def permute_add():
        x, z, k1, k2 = leaf(2, 3, 4), leaf(4, 2, 3), const(4, 2, 3), const(4, 2, 3)
        permute = composed_ops.permute
        return [x, z], lambda: add(_dot(z, k1), _dot(add(permute(x, (2, 0, 1)), z), k2))

    def attend_shared():
        x, w, k1, k2 = leaf(4, 4), leaf(4, 4), const(4, 4), const(4, 4)
        return [x, w], lambda: add(_dot(x, k1), _dot(attend(x, x, matmul(x, w), 2, 2), k2))

    def tied_table():
        table, bias, pos = leaf(10, 4), leaf(10), leaf(6, 4)
        idx, k1, k2 = np.array([1, 3, 3, 0, 7, 1]), const(6, 4), const(6, 10)

        def f():
            h = add(gather_rows(table, idx), pos)
            return add(_dot(pos, k1), _dot(matmul_t(h, table, bias), k2))
        return [table, bias, pos], f

    def concat_last_views():
        a, b, k1, k2 = leaf(3, 2), leaf(3, 3), const(3, 2), const(3, 7)

        def f():
            c = composed_ops.concat_last(a, b)
            return add(_dot(a, k1), _dot(composed_ops.concat_last(c, a), k2))
        return [a, b], f

    return {case.__name__: case() for case in (
        add_self, residual, reshape_add, permute_add, attend_shared, tied_table,
        concat_last_views)}


@pytest.mark.parametrize("case", list(_fan_out_cases()))
def test_fan_out_leaves_never_share_grad_buffers(case):
    leaves, f = _fan_out_cases()[case]
    with Tape() as tape:
        tape.backward(f())
    for i, p in enumerate(leaves):
        assert p.grad is not None and p.grad.shape == p.shape
        for q in leaves[i + 1:]:
            assert not np.shares_memory(p.grad, q.grad)
        assert not any(np.shares_memory(p.grad, q.data) for q in leaves)
        p.zero_grad()
    _fd(f, leaves, 1e-6)


def test_fd_batched_matmul():
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 5, 2)), requires_grad=True)
    k = Tensor(rng.normal(size=(2, 3, 4, 2)))
    _fd(lambda: tsum(mul(composed_ops.matmul(a, b), k)), [a, b], 1e-6)


def test_fd_shape_ops():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    k1 = Tensor(rng.normal(size=(6, 4)))
    k2 = Tensor(rng.normal(size=(4, 2, 3)))
    _fd(lambda: tsum(mul(reshape(x, (6, 4)), k1)), [x], 1e-6)
    _fd(lambda: tsum(mul(composed_ops.permute(x, (2, 0, 1)), k2)), [x], 1e-6)


def test_fd_gather_with_duplicate_rows():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    k = Tensor(rng.normal(size=(4, 3)))
    idx = np.array([0, 2, 2, 5])
    _fd(lambda: tsum(mul(gather_rows(x, idx), k)), [x], 1e-6)


@pytest.mark.parametrize("shape", [(3, 8), (2, 2, 3, 6)])
def test_fd_glu_gelu(shape):
    rng = np.random.default_rng(9)
    h = Tensor(rng.normal(size=shape), requires_grad=True)
    k = Tensor(rng.normal(size=shape[:-1] + (shape[-1] // 2,)))
    _fd(lambda: tsum(mul(glu_gelu(h), k)), [h], 1e-6)


@pytest.mark.parametrize("shape", [(3, 8), (2, 2, 3, 6)])
def test_fd_rotary(shape):
    # composed_ops.rotary is the reference for attend's rotation.
    rng = np.random.default_rng(10)
    t = Tensor(rng.normal(size=shape), requires_grad=True)
    k = Tensor(rng.normal(size=shape))
    cos, sin = rotary_tables(shape[-2], shape[-1], F64)
    _fd(lambda: tsum(mul(composed_ops.rotary(t, cos, sin), k)), [t], 1e-6)


ATTEND_CASES = [(rot, bias) for rot in (False, True) for bias in (False, True)]
ATTEND_IDS = [f"{'rot' if rot else 'norot'}-{'bias' if bias else 'nobias'}"
              for rot, bias in ATTEND_CASES]


def _attend_inputs(dtype, rot, bias, B=2, S=4, H=2, dh=4, spread=1.0):
    """(B*S, d) q, k, v leaves, the extra attend arguments, and a fixed
    projection k of the output; the key bias masks one key of the last
    sequence the way Model.encode does and shifts the others."""
    rng = np.random.default_rng(17)
    q, k, v = (Tensor((rng.normal(size=(B * S, H * dh)) * spread).astype(dtype),
                      requires_grad=True) for _ in range(3))
    key_bias = None
    if bias:
        key_bias = rng.normal(size=(B, 1, 1, S)).astype(dtype)
        key_bias[-1, ..., -1] = -1e9
    tables = rotary_tables(S, dh, dtype) if rot else None
    out_k = Tensor(rng.normal(size=(B * S, H * dh)).astype(dtype))
    return [q, k, v], (S, H, key_bias, tables), out_k


@pytest.mark.parametrize("rot, bias", ATTEND_CASES, ids=ATTEND_IDS)
def test_fd_attend(rot, bias):
    qkv, args, k = _attend_inputs(F64, rot, bias)
    _fd(lambda: tsum(mul(attend(*qkv, *args), k)), qkv, 1e-6)


def _check_attend_against_composed_bitwise(rot, bias, B):
    results = []
    for op in (attend, composed_ops.attend):
        qkv, args, k = _attend_inputs(np.float32, rot, bias, B=B, S=16, H=4, dh=8, spread=3.0)
        with Tape() as tape:
            out = op(*qkv, *args)
            records = len(tape)
            tape.backward(tsum(mul(out, k)))
        assert out.dtype == np.float32 and all(t.grad.dtype == np.float32 for t in qkv)
        results.append((out.data, [t.grad for t in qkv], records))
    (out, grads, records), (ref_out, ref_grads, ref_records) = results
    assert np.array_equal(out, ref_out)
    assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))
    assert records == 1 and ref_records > 1


@pytest.mark.parametrize("rot, bias", ATTEND_CASES, ids=ATTEND_IDS)
def test_attend_matches_composed_reference_bitwise(rot, bias):
    _check_attend_against_composed_bitwise(rot, bias, B=3)


def test_attend_reads_each_blocks_own_row_statistics(monkeypatch):
    # Blocks of two sequences and a short last one of one: backward must
    # recompute each block's probabilities from that block's row max and sum.
    def two_sequence_blocks(S, H):
        monkeypatch.setattr(tensor, "STREAM_BLOCK", 2 * H * S * S)
        assert [b.stop - b.start for b in tensor.row_blocks(5, H * S * S)[1]] == [2, 2, 1]

    two_sequence_blocks(S=4, H=2)
    qkv, args, k = _attend_inputs(F64, True, True, B=5)
    _fd(lambda: tsum(mul(attend(*qkv, *args), k)), qkv, 1e-6)
    two_sequence_blocks(S=16, H=4)
    _check_attend_against_composed_bitwise(True, True, B=5)


def test_recorded_attend_holds_no_probability_buffer():
    # With few features per head, one (B, H, S, S) probability array is
    # 16 times each of q, k and v. A recorded forward keeps only q, k, v
    # and each score row's max and sum; the probabilities stay in block
    # scratch, gone once attend returns.
    B, S, H, dh = 8, 128, 8, 8
    qkv, args, k = _attend_inputs(np.float32, True, True, B=B, S=S, H=H, dh=dh)
    probs_bytes = B * H * S * S * 4
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            out = attend(*qkv, *args)
            held = tracemalloc.get_traced_memory()[0] - start - out.data.nbytes
            tape.backward(tsum(mul(out, k)))
    finally:
        tracemalloc.stop()
    assert held < probs_bytes / 16
    assert all(t.grad.shape == t.shape for t in qkv)


def _forward_and_input_grad(op, x):
    """float32 forward output, d(sum(out * k))/dx for a fixed k, and the
    number of tape records the op itself made."""
    t = Tensor(x.copy(), requires_grad=True)
    with Tape() as tape:
        out = op(t)
        records = len(tape)
        k = np.random.default_rng(11).normal(size=out.shape).astype(np.float32)
        tape.backward(tsum(mul(out, Tensor(k))))
    return out.data, t.grad, records


@pytest.mark.parametrize("shape", [(64, 32), (2, 4, 16, 8)])
def test_fused_ops_match_composed_reference_bitwise(shape):
    rng = np.random.default_rng(12)
    x = (rng.normal(size=shape) * 3.0).astype(np.float32)
    out, grad, records = _forward_and_input_grad(glu_gelu, x)
    ref_out, ref_grad, ref_records = _forward_and_input_grad(composed_ops.glu_gelu, x)
    assert out.dtype == grad.dtype == np.float32
    assert np.array_equal(out, ref_out)
    assert np.array_equal(grad, ref_grad)
    assert records == 1 and ref_records > 1


@pytest.mark.parametrize("case", ["matmul-reshape-layer_norm", "matmul-glu_gelu", "matmul-gelu",
                                  "matmul_t-layer_norm"])
def test_fd_products_read_rebuilt_inputs(case):
    # The loss overwrites the product's input once the product has run:
    # only a backward that rebuilds that input, instead of reading its
    # .data, still gets the weight gradient right.
    rng = np.random.default_rng(23)
    x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
    h = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
    gain = Tensor(rng.normal(size=8) + 1.0, requires_grad=True)
    bias = Tensor(rng.normal(size=8), requires_grad=True)
    w = Tensor(rng.normal(size=(8, 5)), requires_grad=True)
    w_half = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    table = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
    k = Tensor(rng.normal(size=(6, 5)))
    leaves, make, product = {
        "matmul-reshape-layer_norm": ([x, gain, bias, w], lambda: layer_norm(x, gain, bias),
                                      lambda y: matmul(reshape(y, (6, 8)), w)),
        "matmul-glu_gelu": ([h, w_half], lambda: glu_gelu(h), lambda y: matmul(y, w_half)),
        "matmul-gelu": ([h, w], lambda: gelu(h), lambda y: matmul(y, w)),
        "matmul_t-layer_norm": ([h, gain, bias, table], lambda: layer_norm(h, gain, bias),
                                lambda y: matmul_t(y, table)),
    }[case]

    def loss():
        y = make()
        out = product(y)
        y.data.fill(7.0)
        return tsum(mul(out, k))

    _fd(loss, leaves, 1e-6)


# -- row-blocked activation ops ----------------------------------------------

def test_float32_normal_cdf_and_gelu_track_float64_ndtr():
    x = np.concatenate([np.linspace(-13.0, 13.0, 400_001), [1e30, -1e30]]).astype(np.float32)
    x64 = x.astype(F64)
    phi = np.empty_like(x)
    tensor._normal_cdf(x, phi, np.empty((3,) + x.shape, np.float32))
    assert phi.dtype == np.float32
    assert np.abs(phi - ndtr(x64)).max() <= 3e-7
    assert phi[-2] == 1.0 and phi[-1] == 0.0
    out = gelu(Tensor(x)).data
    assert out.dtype == np.float32
    assert np.abs(out - x64 * ndtr(x64)).max() <= 2e-6
    nan = np.full(3, np.nan, np.float32)
    tensor._normal_cdf(nan, phi[:3], np.empty((3, 3), np.float32))
    assert np.isnan(phi[:3]).all()


def test_float64_normal_cdf_tracks_ndtr_into_the_far_left_tail():
    x = np.concatenate([np.linspace(-40.0, 10.0, 500_001), [-np.inf, np.inf, -0.0]])
    want = ndtr(x)
    phi = np.empty_like(x)
    tensor._normal_cdf(x, phi, None)
    assert np.abs(phi - want).max() <= 2.3e-16
    normal = want > np.finfo(F64).tiny
    assert (np.abs(phi - want)[normal] / want[normal]).max() <= 1e-9
    assert phi[-3] == 0.0 and phi[-2] == 1.0 and phi[-1] == 0.5
    aliased = x.copy()
    tensor._normal_cdf(aliased, aliased, None)
    assert np.array_equal(aliased, phi)
    nan = np.full(3, np.nan)
    tensor._normal_cdf(nan, nan, None)
    assert np.isnan(nan).all()


def _ln(x):
    d = x.shape[-1]
    rng = np.random.default_rng(21)
    return (x, Tensor(rng.normal(size=d).astype(x.dtype) + 1.0, requires_grad=True),
            Tensor(rng.normal(size=d).astype(x.dtype), requires_grad=True))


def _run_op(op, leaves, extra=()):
    """Forward output and every leaf gradient of sum(op(...) * k) for a fixed k."""
    with Tape() as tape:
        out = op(*leaves, *extra)
        k = np.random.default_rng(11).normal(size=out.shape).astype(out.dtype)
        tape.backward(tsum(mul(out, Tensor(k))))
    return [out.data] + [t.grad for t in leaves]


# Row counts that leave a partial last block, a row wider than
# STREAM_BLOCK (one row per block), and a 3-D input.
BLOCK_SHAPES = [(2 * (STREAM_BLOCK // 64) + 37, 64), (3, 2 * STREAM_BLOCK + 10), (4, 300, 128)]


@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("shape", BLOCK_SHAPES, ids=["partial-block", "wide-row", "3d"])
@pytest.mark.parametrize("name", ["layer_norm", "gelu", "glu_gelu"])
def test_row_blocked_ops_match_whole_array_forms_bitwise(name, shape, dtype, monkeypatch):
    monkeypatch.setattr(tensor, "_normal_cdf", lambda x, out, scratch: ndtr(x, out=out))
    blocked, whole = {
        "layer_norm": (layer_norm, composed_ops.whole_layer_norm),
        "gelu": (gelu, composed_ops.whole_gelu),
        "glu_gelu": (glu_gelu, composed_ops.whole_glu_gelu),
    }[name]
    x = (np.random.default_rng(20).normal(size=shape) * 3.0).astype(dtype)
    results = []
    for op in (blocked, whole):
        leaf = Tensor(x.copy(), requires_grad=True)
        leaves = _ln(leaf) if name == "layer_norm" else (leaf,)
        results.append(_run_op(op, leaves))
    got, want = results
    assert all(a.dtype == dtype for a in got)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _strided_rows(x):
    """x as a view whose rows are strided: every row sits inside a wider one."""
    wide = np.zeros(x.shape[:-1] + (x.shape[-1] + 16,), x.dtype)
    wide[..., 8:-8] = x
    return wide[..., 8:-8]


@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("shape, strided",
                         [(s, False) for s in BLOCK_SHAPES] + [(BLOCK_SHAPES[0], True)],
                         ids=["partial-block", "wide-row", "3d", "strided"])
@pytest.mark.parametrize("name", ["layer_norm", "gelu", "glu_gelu"])
def test_rebuild_returns_the_forward_output_bytes(name, shape, strided, dtype):
    op = {"layer_norm": layer_norm, "gelu": gelu, "glu_gelu": glu_gelu}[name]
    x = (np.random.default_rng(24).normal(size=shape) * 3.0).astype(dtype)
    if strided:
        x = _strided_rows(x)
        assert not x.flags.c_contiguous
    leaf = Tensor(x, requires_grad=True)
    leaves = _ln(leaf) if name == "layer_norm" else (leaf,)
    # Only a recorded output gets a rebuild.
    assert op(*leaves).rebuild is None
    with Tape():
        assert op(*(Tensor(t.data) for t in leaves)).rebuild is None
        out = op(*leaves)
        flat = reshape(out, (-1,))
    rebuilt = out.rebuild()
    assert rebuilt.dtype == dtype and rebuilt.shape == out.shape
    assert rebuilt.tobytes() == out.data.tobytes()
    # Made once, and shared through reshape.
    assert out.rebuild() is rebuilt
    assert flat.rebuild().shape == flat.shape and np.shares_memory(flat.rebuild(), rebuilt)


@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("B, S, H, dh", [(70, 16, 4, 8), (3, 128, 4, 16)],
                         ids=["partial-block", "one-sequence-blocks"])
def test_attend_matches_whole_array_form_bitwise(B, S, H, dh, dtype):
    rng = np.random.default_rng(22)
    qkv = [(rng.normal(size=(B * S, H * dh)) * 3.0).astype(dtype) for _ in range(3)]
    key_bias = rng.normal(size=(B, 1, 1, S)).astype(dtype)
    key_bias[-1, ..., -1] = -1e9
    extra = (S, H, key_bias, rotary_tables(S, dh, dtype))
    got, want = (_run_op(op, [Tensor(a.copy(), requires_grad=True) for a in qkv], extra)
                 for op in (attend, composed_ops.whole_attend))
    assert all(a.dtype == dtype for a in got)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


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


@pytest.mark.parametrize("bias", [False, True], ids=["no_bias", "bias"])
def test_decoder_cross_entropy_matches_the_unfused_pair_bitwise(bias):
    # A tied table: the decoded rows are looked up in the table they are
    # decoded against, so its gradient takes the decoder's product and
    # then the lookup rows, in the pair's order. Labels repeat.
    rng = np.random.default_rng(17)
    labels = np.array([3, 40, 3, 3, 0, 63, 40])
    idx = rng.integers(0, 64, labels.size)

    def run(fused):
        init = np.random.default_rng(18)
        table = Tensor(init.normal(size=(64, 24)).astype(np.float32), requires_grad=True)
        b = Tensor(init.normal(size=64).astype(np.float32), requires_grad=True) if bias else None
        with Tape() as tape:
            h = gather_rows(table, idx)
            loss = (decoder_cross_entropy(h, table, b, labels) if fused
                    else cross_entropy_from_logits(matmul_t(h, table, b), labels))
            tape.backward(mul(loss, 0.5))
        return [loss.data] + [t.grad for t in (table, b) if t is not None]

    fused, pair = run(True), run(False)
    assert len(fused) == 2 + bias
    for f, p in zip(fused, pair):
        assert f.dtype == np.float32 and f.tobytes() == p.tobytes()

    # The h gradient on its own, through an untied table.
    h = Tensor(rng.normal(size=(labels.size, 24)).astype(np.float32), requires_grad=True)
    table = Tensor(rng.normal(size=(64, 24)).astype(np.float32))
    grads = []
    for loss_of in (lambda: decoder_cross_entropy(h, table, None, labels),
                    lambda: cross_entropy_from_logits(matmul_t(h, table), labels)):
        h.zero_grad()
        with Tape() as tape:
            tape.backward(loss_of())
        grads.append(h.grad.tobytes())
    assert grads[0] == grads[1]


def test_fd_decoder_cross_entropy():
    rng = np.random.default_rng(19)
    h = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    table = Tensor(rng.normal(size=(9, 6)), requires_grad=True)
    bias = Tensor(rng.normal(size=9), requires_grad=True)
    labels = np.array([1, 8, 1, 0, 8])
    _fd(lambda: decoder_cross_entropy(h, table, None, labels), [h, table], 1e-6)
    _fd(lambda: decoder_cross_entropy(h, table, bias, labels), [h, table, bias], 1e-6)
    # Tied: the decoded rows come from the table itself.
    idx = np.array([2, 7, 2, 0, 5])
    _fd(lambda: decoder_cross_entropy(gather_rows(table, idx), table, bias, labels),
        [table, bias], 1e-6)


def test_fd_dropout():
    # Each evaluation draws from a fresh generator with the same seed, so
    # every one applies the same mask.
    rng = np.random.default_rng(16)
    x = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    k = Tensor(rng.normal(size=(5, 6)))
    _fd(lambda: tsum(mul(dropout(x, 0.3, np.random.default_rng(17)), k)), [x], 1e-6)


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


# Each seed's last block draws a value outside two sigma, so a redraw
# lands in the remainder (and in the single element of shape (1,)).
@pytest.mark.parametrize("shape, seed", [
    ((2, STREAM_BLOCK + 7), 4),  # two full blocks and a remainder of 14
    ((1,), 3),
])
def test_truncated_normal_matches_one_shot_draw_and_generator_state(shape, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = truncated_normal(shape, 0.02, rng)
    want = composed_ops.truncated_normal(shape, 0.02, ref_rng)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_gather_rows_out_of_range():
    with pytest.raises(IndexError):
        gather_rows(ones((3, 2)), np.array([0, 3]))


def test_cross_entropy_label_out_of_range():
    with pytest.raises(IndexError):
        cross_entropy_from_logits(ones((2, 4)), np.array([0, 4]))
