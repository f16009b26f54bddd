"""Trainer tests: masking statistics, schedule values, the accumulation
ramp, Adam, the pretraining loop contract, and finetuning."""

import dataclasses
import hashlib
import math
import re
import time
import tracemalloc
import types

import numpy as np
import pytest

import composed_ops
from cramlab import model as model_module
from cramlab import tensor
from cramlab import trainer as trainer_module
from cramlab.budget import DeviceSpec
from cramlab.corpus import PackedDataset, TokenizedEntry, load_dataset, pack, save_dataset
from cramlab.errors import ConfigurationError, ContractError
from cramlab.harness import write_text_atomic
from cramlab.model import Model, ModelConfig, build
from cramlab.tensor import STREAM_BLOCK, Tape, Tensor, add, mul, set_finite_checks, tsum
from cramlab.tokenizer import CLS_ID, MASK_ID, PAD_ID, SEP_ID
from cramlab.trainer import (
    AdamState,
    BatchRampConfig,
    CurvePoint,
    FinetuneProtocol,
    LossCurve,
    MaskingConfig,
    OptimizerConfig,
    ScheduleConfig,
    TaskExample,
    TrainSection,
    accumulation_at,
    adam_step,
    clip_gradients,
    encode_task_batch,
    finetune,
    load_task,
    lr_at,
    mask_batch,
    matthews_correlation,
    planned_samples,
    pretrain,
)


def toy_dataset(n_rows=200, seq_len=16, vocab_size=64, fill=None, seed=0):
    rng = np.random.default_rng(seed)
    if fill is None:
        # ids from 5 keep the special range (and <mask> inputs) out
        seqs = rng.integers(5, vocab_size, size=(n_rows, seq_len), dtype=np.int32)
    else:
        seqs = np.full((n_rows, seq_len), fill, dtype=np.int32)
    return PackedDataset(seqs, vocab_size)


def tiny_model(seed=0, **overrides):
    kw = dict(num_layers=2, hidden_dim=32, num_heads=4, ffn_dim=64,
              vocab_size=64, seq_len=16)
    kw.update(overrides)
    return build(ModelConfig(**kw), seed=seed)


# ---------------------------------------------------------------------------
# Masking


def test_masking_selection_rate_large_sample():
    rng = np.random.default_rng(0)
    seqs = rng.integers(5, 4096, size=(800, 128), dtype=np.int64)
    _, positions, _ = mask_batch(seqs, MaskingConfig(), rng, 4096)
    assert seqs.size >= 100_000
    rate = positions.size / seqs.size
    assert abs(rate - 0.15) < 0.01


def test_masking_treatment_split_large_sample():
    rng = np.random.default_rng(1)
    seqs = rng.integers(5, 4096, size=(800, 128), dtype=np.int64)
    inputs, positions, labels = mask_batch(seqs, MaskingConfig(), rng, 4096)
    got = inputs.ravel()[positions]
    n = positions.size
    frac_mask = np.mean(got == MASK_ID)
    frac_keep = np.mean(got == labels)
    frac_random = np.mean((got != labels) & (got != MASK_ID))
    assert abs(frac_mask - 0.8) < 0.02
    # a random draw can hit the original id; with V=4096 that is < 1e-4
    assert abs(frac_keep - 0.1) < 0.02
    assert abs(frac_random - 0.1) < 0.02
    assert n > 0.14 * seqs.size


def test_masking_never_selects_sep_or_pad():
    rng = np.random.default_rng(2)
    seqs = rng.integers(5, 64, size=(50, 32), dtype=np.int64)
    seqs[:, 7] = SEP_ID
    seqs[:, 20:] = PAD_ID
    inputs, positions, _ = mask_batch(seqs, MaskingConfig(mask_rate=1.0), rng, 64)
    cols = positions % 32
    assert not np.any(cols == 7)
    assert not np.any(cols >= 20)
    assert np.all(inputs[:, 7] == SEP_ID)
    assert np.all(inputs[:, 20:] == PAD_ID)


def test_masking_rate_one_selects_every_eligible_position():
    rng = np.random.default_rng(3)
    seqs = rng.integers(5, 64, size=(10, 16), dtype=np.int64)
    _, positions, labels = mask_batch(seqs, MaskingConfig(mask_rate=1.0), rng, 64)
    assert positions.size == seqs.size
    np.testing.assert_array_equal(labels, seqs.ravel())


def test_masking_rate_zero_forces_one_untouched_position_per_row():
    rng = np.random.default_rng(4)
    seqs = rng.integers(5, 64, size=(12, 16), dtype=np.int64)
    inputs, positions, labels = mask_batch(seqs, MaskingConfig(mask_rate=0.0), rng, 64)
    assert positions.size == 12
    rows = positions // 16
    np.testing.assert_array_equal(np.sort(rows), np.arange(12))
    np.testing.assert_array_equal(inputs, seqs)  # forced slots stay unchanged
    np.testing.assert_array_equal(labels, seqs.ravel()[positions])


def test_masking_skips_rows_with_no_eligible_slot():
    seqs = np.full((2, 8), SEP_ID, dtype=np.int64)
    seqs[1] = np.arange(5, 13)
    rng = np.random.default_rng(5)
    _, positions, _ = mask_batch(seqs, MaskingConfig(mask_rate=0.0), rng, 64)
    assert positions.size == 1
    assert positions[0] // 8 == 1


def test_masking_labels_hold_original_ids():
    rng = np.random.default_rng(6)
    seqs = rng.integers(5, 4096, size=(40, 64), dtype=np.int64)
    inputs, positions, labels = mask_batch(seqs, MaskingConfig(), rng, 4096)
    np.testing.assert_array_equal(labels, seqs.ravel()[positions])
    changed = inputs.ravel()[positions] != labels
    assert changed.any()


def test_masking_positions_sorted_unique():
    rng = np.random.default_rng(7)
    seqs = rng.integers(5, 64, size=(30, 32), dtype=np.int64)
    _, positions, _ = mask_batch(seqs, MaskingConfig(), rng, 64)
    assert positions.dtype == np.int64
    assert np.all(np.diff(positions) > 0)


def test_masking_rejects_mask_token_in_input():
    seqs = np.full((2, 8), 9, dtype=np.int64)
    seqs[0, 3] = MASK_ID
    with pytest.raises(ContractError):
        mask_batch(seqs, MaskingConfig(), np.random.default_rng(0), 64)


def test_masking_deterministic_for_fixed_seed():
    seqs = np.random.default_rng(8).integers(5, 64, size=(20, 16), dtype=np.int64)
    a = mask_batch(seqs, MaskingConfig(), np.random.default_rng(42), 64)
    b = mask_batch(seqs, MaskingConfig(), np.random.default_rng(42), 64)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_masking_config_rejects_bad_split():
    with pytest.raises(ConfigurationError):
        MaskingConfig(p_mask=0.8, p_random=0.3)
    with pytest.raises(ConfigurationError):
        MaskingConfig(mask_rate=1.5)


# ---------------------------------------------------------------------------
# Schedule


def test_one_cycle_frozen_values():
    cfg = ScheduleConfig(schedule_kind="one_cycle", peak_lr=1e-3, peak_fraction=0.5,
                         total_steps=100)
    assert lr_at(0, cfg) == 0.0
    assert lr_at(25, cfg) == 1e-3 * 0.5
    assert lr_at(50, cfg) == 1e-3
    assert lr_at(75, cfg) == 1e-3 * 0.5
    assert lr_at(100, cfg) == 0.0


def test_cosine_decay_values():
    cfg = ScheduleConfig(schedule_kind="cosine_decay", peak_lr=1e-3, total_steps=100)
    assert lr_at(0, cfg) == pytest.approx(1e-3, abs=0)
    assert lr_at(50, cfg) == pytest.approx(5e-4, rel=1e-12)
    assert lr_at(100, cfg) == pytest.approx(0.0, abs=1e-19)
    assert lr_at(25, cfg) == pytest.approx(1e-3 * 0.5 * (1 + math.sqrt(0.5)), rel=1e-12)


def test_linear_decay_and_constant():
    lin = ScheduleConfig(schedule_kind="linear_decay", peak_lr=8e-4, total_steps=200)
    assert lr_at(0, lin) == 8e-4
    assert lr_at(50, lin) == pytest.approx(6e-4, rel=1e-12)
    assert lr_at(200, lin) == 0.0
    const = ScheduleConfig(schedule_kind="constant", peak_lr=3e-4, total_steps=10)
    assert all(lr_at(s, const) == 3e-4 for s in range(11))


def test_lr_at_range_and_config_errors():
    cfg = ScheduleConfig(total_steps=10)
    with pytest.raises(ContractError):
        lr_at(-1, cfg)
    with pytest.raises(ContractError):
        lr_at(11, cfg)
    with pytest.raises(ContractError):
        lr_at(0, ScheduleConfig(total_steps=0))
    with pytest.raises(ConfigurationError):
        lr_at(0, ScheduleConfig(schedule_kind="warmup_decay", total_steps=10))
    with pytest.raises(ConfigurationError):
        ScheduleConfig(peak_fraction=1.0, total_steps=10)
    with pytest.raises(ConfigurationError):
        ScheduleConfig(peak_lr=0.0, total_steps=10)


# ---------------------------------------------------------------------------
# Accumulation ramp


def test_ramp_factor_rounds_half_up():
    assert BatchRampConfig(micro_batch=2, final_batch=33).factor() == 17
    assert BatchRampConfig(micro_batch=2, final_batch=7).factor() == 4
    assert BatchRampConfig(micro_batch=8, final_batch=8).factor() == 1


def test_accumulation_ramp_shape():
    cfg = BatchRampConfig(micro_batch=8, final_batch=32, ramp_end_fraction=0.5)
    total = 12
    values = [accumulation_at(s, cfg, total) for s in range(total)]
    assert values == [1, 2, 2, 3, 3, 4, 4, 4, 4, 4, 4, 4]
    assert values == sorted(values)


def test_accumulation_saturates_at_ramp_end():
    cfg = BatchRampConfig(micro_batch=4, final_batch=64, ramp_end_fraction=0.6)
    assert accumulation_at(60, cfg, 100) == 16
    assert accumulation_at(99, cfg, 100) == 16
    zero_ramp = BatchRampConfig(micro_batch=4, final_batch=64, ramp_end_fraction=0.0)
    assert accumulation_at(0, zero_ramp, 100) == 16


def test_planned_samples_hand_value():
    sched = ScheduleConfig(total_steps=12)
    ramp = BatchRampConfig(micro_batch=8, final_batch=32, ramp_end_fraction=0.5)
    # sum of per-step accumulation [1,2,2,3,3,4,4,...] times micro
    assert planned_samples(sched, ramp) == 312


def test_ramp_config_errors():
    with pytest.raises(ConfigurationError):
        BatchRampConfig(micro_batch=0)
    with pytest.raises(ConfigurationError):
        BatchRampConfig(micro_batch=16, final_batch=8)
    with pytest.raises(ContractError):
        accumulation_at(0, BatchRampConfig(), 0)


# ---------------------------------------------------------------------------
# Optimizer


def test_adam_first_step_closed_form():
    g = 0.37
    p = Tensor(np.array([2.0], np.float32), requires_grad=True)
    p.grad = np.array([g], np.float32)
    state = AdamState()
    cfg = OptimizerConfig(weight_decay=0.0)
    adam_step({"w": p}, state, 1e-3, cfg)
    # bias correction cancels on step one: update = lr * g / (|g| + eps)
    expected = 2.0 - 1e-3 * g / (abs(g) + cfg.eps)
    assert p.data[0] == pytest.approx(expected, rel=1e-6)
    assert state.t == 1


def test_adam_decay_applies_before_update_and_respects_exemption():
    w = Tensor(np.array([1.0, -2.0], np.float32), requires_grad=True)
    norm_g = Tensor(np.array([1.0, 1.0], np.float32), requires_grad=True)
    w.grad = np.zeros(2, np.float32)
    norm_g.grad = np.zeros(2, np.float32)
    cfg = OptimizerConfig(weight_decay=0.01)
    adam_step({"w": w, "norm_g": norm_g}, AdamState(), 0.5, cfg,
              decay_exempt=lambda name: name == "norm_g")
    # zero gradient: the moment update is exactly zero, decay is all that acts
    np.testing.assert_allclose(w.data, [1.0 * (1 - 0.005), -2.0 * (1 - 0.005)], rtol=1e-6)
    np.testing.assert_array_equal(norm_g.data, [1.0, 1.0])


def test_adam_skips_params_without_grad():
    p = Tensor(np.array([5.0], np.float32), requires_grad=True)
    state = AdamState()
    adam_step({"w": p}, state, 1e-2, OptimizerConfig())
    assert p.data[0] == 5.0
    assert "w" not in state.m


def test_adam_step_equals_expression_form_bit_for_bit():
    # "big" spans two full blocks and a remainder of 6; "norm_g" is decay
    # exempt; "frozen" never has a gradient and "bias" misses one step.
    rng = np.random.default_rng(42)
    shapes = {"big": (2, STREAM_BLOCK + 3), "norm_g": (33,), "bias": (7,), "frozen": (4, 4)}
    start = {name: rng.standard_normal(shape).astype(np.float32) for name, shape in shapes.items()}
    sides = []
    for step_fn in (adam_step, composed_ops.adam_step):
        params = {name: Tensor(a.copy(), requires_grad=True) for name, a in start.items()}
        sides.append((step_fn, params, AdamState()))
    cfg = OptimizerConfig(weight_decay=0.01)
    for step, lr in enumerate([1e-3, 3e-3, 2e-3, 5e-4]):
        grads = {name: rng.standard_normal(shape).astype(np.float32)
                 for name, shape in shapes.items()}
        grads["frozen"] = None
        if step == 2:
            grads["bias"] = None
        for step_fn, params, state in sides:
            for name, p in params.items():
                p.grad = None if grads[name] is None else grads[name].copy()
            step_fn(params, state, lr, cfg, decay_exempt=lambda name: name == "norm_g")
    (_, got, got_state), (_, want, want_state) = sides
    assert got_state.t == want_state.t == 4
    assert "frozen" not in got_state.m and list(got_state.m) == list(want_state.m)
    for name in shapes:
        assert got[name].data.tobytes() == want[name].data.tobytes(), name
    for name in want_state.m:
        assert got_state.m[name].tobytes() == want_state.m[name].tobytes(), name
        assert got_state.v[name].tobytes() == want_state.v[name].tobytes(), name
    assert got["frozen"].data.tobytes() == start["frozen"].tobytes()


def test_adam_refuses_a_parameter_it_cannot_update_in_place():
    p = Tensor(np.ones((3, 4), np.float32).T, requires_grad=True)
    p.grad = np.ones((4, 3), np.float32)
    with pytest.raises(ContractError, match="not C-contiguous"):
        adam_step({"w": p}, AdamState(), 1e-3, OptimizerConfig())


def test_adam_converges_on_quadratic_bowl():
    p = Tensor(np.array([8.0], np.float32), requires_grad=True)
    state = AdamState()
    cfg = OptimizerConfig(weight_decay=0.0, clip_norm=None)
    for _ in range(200):
        p.zero_grad()
        with Tape() as tape:
            d = add(p, -3.0)
            loss = mul(d, d)
            tape.backward(loss)
        adam_step({"p": p}, state, 0.1, cfg)
    assert abs(float(p.data[0]) - 3.0) < 0.05


def test_clip_rescales_to_threshold():
    a = np.array([3.0], np.float32)
    b = np.array([4.0], np.float32)
    norm = clip_gradients([a, b], 0.5)
    assert norm == pytest.approx(5.0, rel=1e-7)
    np.testing.assert_allclose(a, [0.3], rtol=1e-6)
    np.testing.assert_allclose(b, [0.4], rtol=1e-6)


def test_clip_leaves_small_gradients_alone():
    a = np.array([0.1, 0.2], np.float32)
    norm = clip_gradients([a, None], 10.0)
    assert norm == pytest.approx(math.sqrt(0.05), rel=1e-6)
    np.testing.assert_array_equal(a, np.array([0.1, 0.2], np.float32))


def test_clip_rejects_non_finite_gradient():
    for bad in (np.inf, -np.inf, np.nan):
        for clip_norm in (0.5, None):
            finite = np.array([3.0, -4.0], np.float32)
            broken = np.array([1.0, bad], np.float32)
            with pytest.raises(FloatingPointError, match="non-finite gradient norm"):
                clip_gradients([finite, None, broken], clip_norm)
            # nothing is scaled before the check fails
            np.testing.assert_array_equal(finite, np.array([3.0, -4.0], np.float32))


def test_optimizer_config_errors():
    with pytest.raises(ConfigurationError):
        OptimizerConfig(beta1=1.0)
    with pytest.raises(ConfigurationError):
        OptimizerConfig(eps=0.0)
    with pytest.raises(ConfigurationError):
        OptimizerConfig(clip_norm=0.0)


@pytest.mark.parametrize("config", [
    MaskingConfig(), OptimizerConfig(), ScheduleConfig(), BatchRampConfig(),
    FinetuneProtocol(), DeviceSpec("unit", peak_tflops=1.0),
], ids=lambda c: type(c).__name__)
def test_recipe_configs_are_frozen_values(config):
    # Checked once when built, so no field may change afterwards.
    for f in dataclasses.fields(config):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, f.name, getattr(config, f.name))


def test_update_takes_the_mean_of_its_batches():
    # Batches weighting one parameter by 1 and 3: the step's loss and
    # gradient are their means, over a stale gradient zeroed first.
    w = Tensor(np.ones(3, np.float32), requires_grad=True, name="w")
    w.grad = np.full(3, 5.0, np.float32)
    loss = trainer_module._update({"w": w}, AdamState(), 0.1, OptimizerConfig(clip_norm=None),
                                  lambda c: tsum(mul(w, c)), [1.0, 3.0], np.random.default_rng(0))
    assert loss == 6.0
    assert w.grad.tolist() == [2.0, 2.0, 2.0]
    assert (w.data < 1.0).all()


def test_update_refuses_a_non_finite_loss_before_the_parameters_change():
    # An infinite loss with a finite gradient on the step, and a finite
    # replay: only the loss check sees it, and its own error is raised.
    offsets = iter([math.inf, 0.0])
    w = Tensor(np.ones(3, np.float32), requires_grad=True, name="w")
    with pytest.raises(FloatingPointError, match="non-finite training loss"):
        trainer_module._update({"w": w}, AdamState(), 0.1, OptimizerConfig(),
                               lambda _: add(tsum(w), next(offsets)), [None],
                               np.random.default_rng(0))
    assert next(offsets, None) is None  # the step, then the replay
    assert w.data.tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("setting", [True, False])
def test_update_restores_the_callers_guard_and_numpy_error_state(setting):
    # The step runs with the guard and numpy's warnings off, and a failed
    # step's replay with the guard on; the caller gets its own back.
    w = Tensor(np.ones(3, np.float32), requires_grad=True, name="w")

    def step(offset):
        trainer_module._update({"w": w}, AdamState(), 0.1, OptimizerConfig(),
                               lambda _: add(tsum(w), offset), [None], np.random.default_rng(0))

    previous = set_finite_checks(setting)
    try:
        with np.errstate(over="raise", invalid="warn", divide="print", under="warn"):
            caller = np.geterr()
            step(0.0)
            assert tensor._finite_checks is setting and np.geterr() == caller
            with pytest.raises(FloatingPointError, match="produced by add"):
                step(math.inf)
            assert tensor._finite_checks is setting and np.geterr() == caller
    finally:
        set_finite_checks(previous)


# ---------------------------------------------------------------------------
# Loss curve


def test_curve_csv_round_trip_is_exact():
    curve = LossCurve()
    curve.append(CurvePoint(0, 0, 0.0, math.log(32768.0), 0.0))
    curve.append(CurvePoint(50, 12800, 0.1 + 0.2, 7.123456789012345, 1e-17))
    curve.append(CurvePoint(100, 25600, 1e-3, 6.5, 2.5))
    text = curve.to_csv_text()
    path_free = [ln.split(",") for ln in text.strip().splitlines()[1:]]
    assert len(path_free) == 3
    back = LossCurve([CurvePoint(int(s), int(t), float(lr), float(loss), float(sec))
                      for s, t, lr, loss, sec in path_free])
    for p, q in zip(curve.points, back.points):
        assert (p.step, p.tokens, p.lr, p.loss, p.seconds) == \
            (q.step, q.tokens, q.lr, q.loss, q.seconds)


def test_curve_file_round_trip(tmp_path):
    curve = LossCurve([CurvePoint(0, 0, 0.0, 8.3177, 0.0),
                       CurvePoint(10, 1280, 5e-4, 7.9, 0.0)])
    path = str(tmp_path / "curve.csv")
    write_text_atomic(path, curve.to_csv_text())
    back = LossCurve.from_csv(path)
    assert back.to_csv_text() == curve.to_csv_text()


def test_curve_rejects_non_monotonic_points():
    curve = LossCurve([CurvePoint(0, 100, 0.0, 1.0, 1.0)])
    with pytest.raises(ContractError):
        curve.append(CurvePoint(1, 100, 0.0, 1.0, 2.0))
    with pytest.raises(ContractError):
        curve.append(CurvePoint(1, 200, 0.0, 1.0, 0.5))


def test_curve_rejects_foreign_header(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("step,tokens,loss\n0,0,1.0\n")
    with pytest.raises(ContractError):
        LossCurve.from_csv(str(path))


def test_curve_row_out_of_token_order_names_the_file_and_line(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("step,tokens,lr,loss,seconds\n0,0,0.0,6.0,0.0\n4,512,0.001,5.0,0.0\n"
                    "8,512,0.001,4.0,0.0\n")
    with pytest.raises(ContractError) as info:
        LossCurve.from_csv(str(path))
    assert str(info.value) == f"{path}:4: curve tokens must be strictly increasing"


@pytest.mark.parametrize("row", ["4,512,0.001,5.0", "4.5,512,0.001,5.0,0.0"])
def test_curve_malformed_row_names_the_file_and_line(tmp_path, row):
    # Line 3 is blank, so the row is line 4 of the file.
    path = tmp_path / "curve.csv"
    path.write_text(f"step,tokens,lr,loss,seconds\n0,0,0.0,6.0,0.0\n\n{row}\n")
    with pytest.raises(ContractError) as info:
        LossCurve.from_csv(str(path))
    assert str(info.value) == f"{path}:4: malformed curve row {row!r}"


def test_curve_row_with_a_non_finite_value_names_the_file_and_line(tmp_path):
    # A nan loss would otherwise load and fit_power_law would return a
    # nan fit.
    path = tmp_path / "curve.csv"
    for row in ("4,512,nan,5.0,0.0", "4,512,0.001,nan,0.0", "4,512,0.001,5.0,inf"):
        path.write_text(f"step,tokens,lr,loss,seconds\n0,0,0.0,6.0,0.0\n{row}\n")
        with pytest.raises(ContractError) as info:
            LossCurve.from_csv(str(path))
        assert str(info.value) == f"{path}:3: curve lr, loss and seconds must be finite"


# ---------------------------------------------------------------------------
# Pretraining loop


def run_small(model, data, total_steps, interval=4, seed=11, micro=8,
              final=None, ramp_end=0.5, peak_lr=1e-3, checkpoint=None):
    train = TrainSection(peak_lr=peak_lr, micro_batch=micro, final_batch=final or micro,
                         ramp_end_fraction=ramp_end, budget_steps=total_steps, seed=seed)
    res = pretrain(model, data, train, curve_interval=interval)
    if checkpoint is not None:
        model.save(checkpoint)
    return res


def test_pretrain_loss_decreases_on_constant_data():
    model = tiny_model(seed=1)
    data = toy_dataset(n_rows=400, fill=7)
    res = run_small(model, data, total_steps=40)
    pts = res.curve.points
    assert pts[0].step == 0
    assert pts[-1].loss < pts[0].loss


def test_pretrain_curve_steps_lr_tokens_and_seconds():
    model = tiny_model(seed=2)
    data = toy_dataset(n_rows=200)
    res = run_small(model, data, total_steps=10, interval=4)
    pts = res.curve.points
    assert [p.step for p in pts] == [0, 4, 8, 10]
    sched = ScheduleConfig(schedule_kind="one_cycle", peak_lr=1e-3, total_steps=10)
    # the recorded lr is the one used by the most recent update
    for p in pts[1:]:
        assert p.lr == lr_at(p.step - 1, sched)
    for p in pts:
        assert p.seconds == 0.0
    np.testing.assert_array_equal([p.tokens for p in pts],
                                  [0, 4 * 128, 8 * 128, 10 * 128])
    assert res.steps == 10
    assert res.tokens == 10 * 8 * 16


def test_pretrain_conserves_planned_samples():
    model = tiny_model(seed=3)
    data = toy_dataset(n_rows=400)
    sched = ScheduleConfig(total_steps=12)
    ramp = BatchRampConfig(micro_batch=8, final_batch=32, ramp_end_fraction=0.5)
    res = run_small(model, data, total_steps=12, final=32)
    assert res.tokens == planned_samples(sched, ramp) * 16 == 312 * 16


def test_pretrain_single_epoch_stops_when_data_runs_out():
    model = tiny_model(seed=4)
    data = toy_dataset(n_rows=40)
    res = run_small(model, data, total_steps=100, interval=3)
    assert res.steps == 5  # 40 rows / micro 8, never revisited
    assert res.curve.points[-1].step == 5
    assert res.tokens == 40 * 16


# Runs whose progress the curve's last point must state, each with that
# point's (step, tokens), or None for an empty curve. The aborted run's
# last point is the step before the failed one.
PROGRESS_RUNS = {
    # 10 steps at curve interval 4: the run ends between curve points
    "off_interval": (lambda: run_small(tiny_model(seed=2), toy_dataset(n_rows=200),
                                       total_steps=10, interval=4), (10, 10 * 8 * 16)),
    "aborted": (lambda: run_diverging()[1], None),
    "zero_budget": (lambda: run_small(tiny_model(seed=2), toy_dataset(n_rows=200),
                                      total_steps=0), None),
    # ramp_end 0 asks for all 32 rows of the final batch at step 0, and
    # there are 16
    "data_out_before_first_step": (
        lambda: run_small(tiny_model(seed=2), toy_dataset(n_rows=16), total_steps=5,
                          final=32, ramp_end=0.0), (0, 0)),
}


@pytest.mark.parametrize("case", list(PROGRESS_RUNS))
def test_result_progress_is_the_curves_last_point(case):
    run, want = PROGRESS_RUNS[case]
    res = run()
    last = (res.curve.points[-1].step, res.curve.points[-1].tokens) if len(res.curve) else None
    assert (res.steps, res.tokens) == (last or (0, 0))
    assert res.aborted == (case == "aborted") == (res.abort_reason is not None)
    if case == "aborted":
        assert res.abort_reason.endswith(f" at step {last[0] + 1}")
    else:
        assert last == want


def test_pretrain_is_deterministic_bit_for_bit(tmp_path):
    data = toy_dataset(n_rows=200, seed=5)
    texts, blobs = [], []
    for run in range(2):
        model = tiny_model(seed=9)
        ckpt = str(tmp_path / f"m{run}.ckpt")
        res = run_small(model, data, total_steps=12, checkpoint=ckpt)
        texts.append(res.curve.to_csv_text())
        blobs.append((tmp_path / f"m{run}.ckpt").read_bytes())
    assert texts[0] == texts[1]
    assert blobs[0] == blobs[1]


def test_curve_point_snapshot_reuses_its_arrays():
    # Parameters outweigh one micro-batch's activations and Adam's
    # temporaries here, so a copy of the parameters taken at a curve
    # point, once or at every point, would raise the peak by most of a
    # parameter set. The run holds the parameters, their gradients and
    # Adam's m and v, and no fifth copy.
    data = toy_dataset(n_rows=64, seq_len=8)
    peaks = []
    for interval in (1, 100):
        model = tiny_model(seed=10, num_layers=4, hidden_dim=64, ffn_dim=256, seq_len=8)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_small(model, data, total_steps=4, interval=interval, micro=2)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    param_bytes = sum(p.data.nbytes for p in model.params.values())
    assert peaks[0] - peaks[1] < param_bytes / 4
    assert max(peaks) < 4 * param_bytes


def test_pretrain_on_a_mapped_dataset_matches_the_packed_one(tmp_path):
    # The uint16 ids pack makes, the same ids mapped from their file, and
    # an int32 copy of them train to the same curve and checkpoint bytes.
    rng = np.random.default_rng(21)
    entries = [TokenizedEntry.from_ids(rng.integers(5, 64, size=int(n)), i)
               for i, n in enumerate(rng.integers(8, 40, size=200))]
    packed = pack(entries, 16, seed=3, vocab_size=64)
    path = str(tmp_path / "data.bin")
    save_dataset(path, packed)
    datasets = {"packed": packed, "mapped": load_dataset(path),
                "int32": PackedDataset(packed.sequences.astype(np.int32), 64)}
    outputs = {}
    for name, data in datasets.items():
        checkpoint = str(tmp_path / f"{name}.ckpt")
        res = run_small(tiny_model(seed=4), data, total_steps=6, interval=1, micro=4,
                        final=8, checkpoint=checkpoint)
        with open(checkpoint, "rb") as fh, open(checkpoint + ".bin", "rb") as blob:
            outputs[name] = (res.curve.to_csv_text(), fh.read(), blob.read())
    assert outputs["mapped"] == outputs["packed"] == outputs["int32"]


def run_diverging(interval=5, steps=40, **model_overrides):
    model = tiny_model(seed=6, **model_overrides)
    train = TrainSection(schedule_kind="constant", peak_lr=1e4, micro_batch=8, final_batch=8,
                         weight_decay=0.5, budget_steps=steps, seed=13)
    res = pretrain(model, toy_dataset(n_rows=800), train, curve_interval=interval)
    return model, res


@pytest.mark.parametrize("interval", [1, 5])
def test_aborted_run_equals_a_budget_run_of_its_completed_steps(interval):
    # The failed step never reaches the parameters, so an abort leaves
    # the curve and the parameters of a run budgeted to stop before it,
    # whatever the curve interval.
    model, res = run_diverging(interval)
    assert res.aborted and res.steps > 0
    budgeted, done = run_diverging(interval, steps=res.steps)
    assert not done.aborted
    assert res.curve.to_csv_text() == done.curve.to_csv_text()
    for name, p in model.params.items():
        assert p.data.tobytes() == budgeted.params[name].data.tobytes(), name


def test_pretrain_aborts_and_restores_on_divergence():
    model, res = run_diverging()
    assert res.aborted
    assert "non-finite" in res.abort_reason
    assert res.steps == res.curve.points[-1].step
    for p in model.params.values():
        assert np.all(np.isfinite(p.data))
    # The guarded replay names the op; with a curve point after every
    # step the run keeps every step before the failing one.
    failing = run_diverging(interval=1)[1].steps + 1
    assert "produced by" in res.abort_reason
    assert res.abort_reason.endswith(f" at step {failing}")


def test_pretrain_steps_run_without_op_guard(monkeypatch):
    # The step-0 evaluation runs under the caller's guard setting, every
    # step forward without the guard; pretrain restores the caller's
    # setting whether the run finishes or aborts.
    seen = []
    loss = Model.loss

    def recording_loss(self, *args, **kwargs):
        seen.append(tensor._finite_checks)
        return loss(self, *args, **kwargs)

    monkeypatch.setattr(Model, "loss", recording_loss)
    for setting in (True, False):
        previous = set_finite_checks(setting)
        try:
            seen.clear()
            res = run_small(tiny_model(seed=1), toy_dataset(n_rows=200), total_steps=6)
            assert not res.aborted
            assert seen == [setting] + [False] * 6
            assert tensor._finite_checks is setting
            seen.clear()
            _, res = run_diverging()
            assert res.aborted
            # eval, the failing step, then the guarded replay of that step
            assert seen[0] is setting and seen[-1] is True
            assert tensor._finite_checks is setting
        finally:
            set_finite_checks(previous)


def test_pretrain_aborts_on_divergence_without_op_guard():
    previous = set_finite_checks(False)
    try:
        model, res = run_diverging()
    finally:
        set_finite_checks(previous)
    # the step-loss and gradient-norm checks alone catch the divergence
    assert res.aborted
    assert "non-finite" in res.abort_reason
    for p in model.params.values():
        assert np.all(np.isfinite(p.data))


@pytest.mark.parametrize("setting", [True, False])
def test_abort_falls_back_to_the_step_check_message(monkeypatch, setting):
    # When the guarded replay finds every forward output finite, the
    # abort reason is the step check's own message.
    clip = trainer_module.clip_gradients
    calls = []

    def clip_failing_at_step_2(grads, clip_norm):
        calls.append(clip_norm)
        if len(calls) == 2:
            raise FloatingPointError("non-finite gradient norm")
        return clip(grads, clip_norm)

    monkeypatch.setattr(trainer_module, "clip_gradients", clip_failing_at_step_2)
    previous = set_finite_checks(setting)
    try:
        res = run_small(tiny_model(seed=1), toy_dataset(n_rows=200), total_steps=6)
        assert tensor._finite_checks is setting
    finally:
        set_finite_checks(previous)
    assert res.abort_reason == "non-finite gradient norm at step 2"
    assert res.steps == 1


def test_divergence_replay_draws_the_failed_step_dropout_masks(monkeypatch):
    # With dropout on, the guarded replay must draw the masks the failed
    # step drew, so it runs the forward that failed.
    draws = []
    dropout = model_module.dropout

    def recording_dropout(x, rate, rng):
        if rate:  # rate-0 calls (evaluation) draw nothing
            draws.append((tensor._finite_checks, rng.bit_generator.state))
        return dropout(x, rate, rng)

    monkeypatch.setattr(model_module, "dropout", recording_dropout)
    _, res = run_diverging(dropout_rate=0.1)
    assert res.aborted and "produced by" in res.abort_reason
    steps = [state for guarded, state in draws if not guarded]
    replay = [state for guarded, state in draws if guarded]
    assert len(steps) % 5 == 0  # the embedding and two per block
    assert replay and replay == steps[len(steps) - 5:][:len(replay)]


def test_pretrain_rejects_dataset_smaller_than_micro_batch():
    model = tiny_model(seed=7)
    data = toy_dataset(n_rows=4)
    with pytest.raises(ConfigurationError):
        run_small(model, data, total_steps=5)


def test_pretrain_refuses_a_final_batch_below_the_micro_batch_before_any_step(monkeypatch):
    monkeypatch.setattr(trainer_module, "mask_batch", lambda *a: pytest.fail("a batch ran"))
    with pytest.raises(ConfigurationError, match="final_batch must be >= micro_batch"):
        run_small(tiny_model(seed=7), toy_dataset(), total_steps=5, micro=8, final=4)


def test_pretrain_wallclock_mode_records_elapsed_seconds():
    model = tiny_model(seed=8)
    data = toy_dataset(n_rows=4000)
    start = time.monotonic()
    train = TrainSection(micro_batch=8, final_batch=8, budget_hours=1 / 3600, seed=21)
    res = pretrain(model, data, train, curve_interval=10)
    elapsed = time.monotonic() - start
    assert res.steps > 0
    assert res.curve.points[-1].seconds > 0.0
    assert elapsed >= 1.0 or res.tokens == data.token_count


def test_wallclock_schedule_ramp_and_stop_read_elapsed_seconds(monkeypatch):
    # A fake clock advances 1 s per forward, so each step's start time is
    # known. The step's lr and micro-batch count come from that time with
    # the budget's seconds as the horizon, and the run stops at the first
    # step that would start at or after the budget.
    clock = [0.0]
    loss = Model.loss

    def ticking_loss(self, *args, **kwargs):
        clock[0] += 1.0
        return loss(self, *args, **kwargs)

    monkeypatch.setattr(Model, "loss", ticking_loss)
    monkeypatch.setattr(trainer_module, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))
    train = TrainSection(micro_batch=8, final_batch=32, ramp_end_fraction=0.5,
                         budget_hours=20 / 3600, seed=21)
    res = pretrain(tiny_model(seed=8), toy_dataset(n_rows=400), train, curve_interval=1)
    pts = res.curve.points
    # A curve point's seconds is the elapsed time at the next step's start.
    starts = [p.seconds for p in pts[:-1]]
    horizon = ScheduleConfig(schedule_kind="one_cycle", peak_lr=1e-3, total_steps=20.0)
    assert [p.lr for p in pts[1:]] == [lr_at(t, horizon) for t in starts]
    micro_batches = [(b.tokens - a.tokens) // (8 * 16) for a, b in zip(pts, pts[1:])]
    assert micro_batches == sorted(micro_batches) and micro_batches[-1] == train.ramp().factor()
    assert starts[-1] < 20.0 <= pts[-1].seconds
    assert res.steps == len(starts)


def test_aborted_wallclock_run_closes_at_its_last_step_time(monkeypatch):
    # A fake clock advances 1 s per forward: the step-0 evaluation, each
    # step's micro-batch and the guarded replay of the failed step. The
    # closing point carries the time its own step completed, not the
    # time after the failed step and its replay.
    clock = [0.0]
    loss = Model.loss

    def ticking_loss(self, *args, **kwargs):
        clock[0] += 1.0
        return loss(self, *args, **kwargs)

    monkeypatch.setattr(Model, "loss", ticking_loss)
    monkeypatch.setattr(trainer_module, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))
    runs = {}
    for interval in (1, 1000):
        clock[0] = 0.0
        train = TrainSection(schedule_kind="constant", peak_lr=1e4, micro_batch=8,
                             final_batch=8, weight_decay=0.5, budget_hours=1000 / 3600, seed=13)
        runs[interval] = pretrain(tiny_model(seed=6), toy_dataset(n_rows=800), train,
                                  curve_interval=interval)
    every, closing = runs[1], runs[1000]
    assert closing.aborted and 0 < closing.steps < 1000
    last = closing.curve.points[-1]
    assert last.seconds == 1.0 + last.step
    assert [last] == every.curve.points[closing.steps:]
    assert clock[0] == last.seconds + 2.0  # the failed step and its replay


# ---------------------------------------------------------------------------
# Task encoding and metrics


def test_load_task_parses_two_and_three_columns(tmp_path):
    path = tmp_path / "task.tsv"
    path.write_text("seal cove\tcoast\nseal cove\tstone ridge\tinland\n\n", encoding="utf-8")
    examples = load_task(str(path))
    assert len(examples) == 2
    assert examples[0].text == "seal cove" and examples[0].text2 is None
    assert examples[0].label == "coast"
    assert examples[1].text2 == "stone ridge" and examples[1].label == "inland"


def test_load_task_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tcoast\n\na\tb\tc\td\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}:3: task row needs"):
        load_task(str(path))


def test_encode_task_batch_layout(wp_small):
    examples = [
        TaskExample("misty harbor", None, "x"),
        TaskExample("misty", "harbor", "y"),
    ]
    batch = encode_task_batch(wp_small, examples, 16)
    assert batch.shape == (2, 16)
    assert batch[0, 0] == CLS_ID and batch[1, 0] == CLS_ID
    first = wp_small.encode("misty")
    sep_col = 1 + len(first)
    assert batch[1, sep_col] == SEP_ID
    row0 = [CLS_ID] + wp_small.encode("misty harbor")
    np.testing.assert_array_equal(batch[0, :len(row0)], row0)
    assert np.all(batch[0, len(row0):] == PAD_ID)


def test_encode_task_batch_truncates(wp_small):
    long_text = " ".join(["harbor"] * 40)
    batch = encode_task_batch(wp_small, [TaskExample(long_text, None, "z")], 12)
    assert batch.shape == (1, 12)
    assert not np.any(batch == PAD_ID)


def test_matthews_perfect_inverted_constant():
    t = np.array([0, 1, 0, 1, 1, 0])
    assert matthews_correlation(t, t, 2) == pytest.approx(1.0)
    assert matthews_correlation(t, 1 - t, 2) == pytest.approx(-1.0)
    assert matthews_correlation(t, np.ones_like(t), 2) == 0.0


def test_matthews_matches_binary_formula():
    rng = np.random.default_rng(17)
    t = rng.integers(0, 2, 200)
    p = rng.integers(0, 2, 200)
    tp = float(np.sum((t == 1) & (p == 1)))
    tn = float(np.sum((t == 0) & (p == 0)))
    fp = float(np.sum((t == 0) & (p == 1)))
    fn = float(np.sum((t == 1) & (p == 0)))
    denom = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    expected = 0.0 if denom == 0 else (tp * tn - fp * fn) / denom
    assert matthews_correlation(t, p, 2) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Finetuning


def pick_separable_words(wp, lexicon, count=2):
    """First few lexicon words with distinct, unk-free encodings."""
    from cramlab.tokenizer import UNK_ID
    chosen, seen = [], set()
    for word in lexicon:
        ids = tuple(wp.encode(word))
        if UNK_ID in ids or ids in seen:
            continue
        seen.add(ids)
        chosen.append(word)
        if len(chosen) == count:
            return chosen
    raise AssertionError("lexicon/tokenizer fixture lost its coverage")


def test_finetune_separates_two_constant_classes(wp_small, lexicon):
    word_a, word_b = pick_separable_words(wp_small, lexicon)
    train = []
    for i in range(16):
        train.append(TaskExample(word_a, None, "alpha"))
        train.append(TaskExample(word_b, None, "beta"))
    model = tiny_model(seed=10, vocab_size=len(wp_small.vocab))
    metrics = finetune(
        model, wp_small, train,
        FinetuneProtocol(epochs=5, batch_size=8, lr=1e-2),
        seed=3,
    )
    assert metrics.accuracy >= 0.9
    assert metrics.matthews >= 0.8


def test_finetune_bytes_are_pinned(wp_small, lexicon, small_corpus):
    # Two epochs over 96 corpus sentences, each led by its class's word
    # and cut to three more words, with the protocol's dropout; the pin
    # holds the accuracy and every finetuned parameter's bytes.
    words = pick_separable_words(wp_small, lexicon)
    train = [TaskExample(" ".join([words[i % 2], *s.split()[:3]]), None, ("alpha", "beta")[i % 2])
             for i, s in enumerate(small_corpus[:96])]
    model = tiny_model(seed=10, vocab_size=len(wp_small.vocab))
    metrics = finetune(model, wp_small, train,
                       FinetuneProtocol(epochs=2, batch_size=8, lr=1e-2), seed=3)
    digest = hashlib.sha256()
    for p in model.params.values():
        digest.update(p.data.tobytes())
    assert metrics.accuracy == 95 / 96
    assert digest.hexdigest()[:16] == "a47233fa79bf40e2"


def test_finetune_trains_bit_for_bit_with_the_op_guard_kept_on(wp_small, lexicon, small_corpus,
                                                               monkeypatch):
    # The steps run with the guard off; the guard only reads op outputs,
    # so finetuning with it kept on throughout gives the same bytes.
    words = pick_separable_words(wp_small, lexicon)
    train = [TaskExample(" ".join([words[i % 2], *s.split()[:3]]), None, ("alpha", "beta")[i % 2])
             for i, s in enumerate(small_corpus[:96])]

    def finetuned_params() -> list[bytes]:
        model = tiny_model(seed=10, vocab_size=len(wp_small.vocab))
        finetune(model, wp_small, train, FinetuneProtocol(epochs=1, batch_size=8, lr=1e-2), seed=3)
        return [p.data.tobytes() for p in model.params.values()]

    unguarded = finetuned_params()
    toggles = []
    monkeypatch.setattr(trainer_module, "set_finite_checks",
                        lambda enabled: toggles.append(enabled) or True)
    assert finetuned_params() == unguarded
    assert toggles == [False, True] * 12  # off for each step, then restored


def test_finetune_divergence_replay_draws_the_failed_step_dropout_masks(wp_small, monkeypatch):
    # As in pretraining, the guarded replay of a failed finetuning step
    # draws the masks that step drew, so it runs the forward that failed.
    draws = []
    dropout = model_module.dropout

    def recording_dropout(x, rate, rng):
        if rate:  # evaluation draws nothing
            draws.append((tensor._finite_checks, rng.bit_generator.state))
        return dropout(x, rate, rng)

    monkeypatch.setattr(model_module, "dropout", recording_dropout)
    monkeypatch.setattr(trainer_module, "dropout", recording_dropout)
    model = tiny_model(seed=11, vocab_size=len(wp_small.vocab))
    train = [TaskExample(w, None, ("a", "b")[i % 2])
             for i, w in enumerate(["misty", "harbor", "lantern", "meadow"])]
    with pytest.raises(FloatingPointError, match="produced by"):
        finetune(model, wp_small, train, FinetuneProtocol(epochs=1, batch_size=1, lr=1e25))
    steps = [state for guarded, state in draws if not guarded]
    replay = [state for guarded, state in draws if guarded]
    assert len(steps) % 6 == 0  # the embedding, two per block and the <cls> row
    assert replay and replay == steps[len(steps) - 6:][:len(replay)]


def test_finetune_validation_errors(wp_small):
    model = tiny_model(seed=11, vocab_size=len(wp_small.vocab))
    with pytest.raises(ConfigurationError):
        finetune(model, wp_small, [], FinetuneProtocol())
    one_class = [TaskExample("misty", None, "only")] * 4
    with pytest.raises(ConfigurationError):
        finetune(model, wp_small, one_class, FinetuneProtocol())
    train = [TaskExample("misty", None, "a"), TaskExample("harbor", None, "b")]
    stray = [TaskExample("misty", None, "c")]
    with pytest.raises(ConfigurationError):
        finetune(model, wp_small, train, FinetuneProtocol(), eval_examples=stray)
    # An empty eval set has no accuracy to report.
    with pytest.raises(ConfigurationError, match="empty eval task"):
        finetune(model, wp_small, train, FinetuneProtocol(), eval_examples=[])


def test_finetune_refuses_a_non_finite_loss(wp_small, monkeypatch):
    # finetune steps through pretraining's update: the loss check fires,
    # the guarded replay names the op, and the parameters stay as loaded.
    monkeypatch.setattr(trainer_module, "cross_entropy_from_logits",
                        lambda logits, labels: add(tsum(logits), math.inf))
    model = tiny_model(seed=11, vocab_size=len(wp_small.vocab))
    loaded = [p.data.copy() for p in model.params.values()]
    train = [TaskExample("misty", None, "a"), TaskExample("harbor", None, "b")]
    with pytest.raises(FloatingPointError, match="produced by add"):
        finetune(model, wp_small, train, FinetuneProtocol())
    for p, q in zip(model.params.values(), loaded):
        assert np.array_equal(p.data, q)


@pytest.mark.parametrize("extra", [-8, 8])
def test_finetune_refuses_a_vocabulary_the_model_was_not_built_for(wp_small, extra):
    # A vocabulary larger than the model's would index past its embedding
    # table; a smaller one would train on the wrong rows.
    vocab = len(wp_small.vocab)
    model = tiny_model(seed=11, vocab_size=vocab + extra)
    train = [TaskExample("misty", None, "a"), TaskExample("harbor", None, "b")]
    with pytest.raises(ConfigurationError, match=f"{vocab} tokens .* vocab_size {vocab + extra}"):
        finetune(model, wp_small, train, FinetuneProtocol())


def test_finetune_protocol_bounds():
    with pytest.raises(ConfigurationError):
        FinetuneProtocol(epochs=6)
    with pytest.raises(ConfigurationError):
        FinetuneProtocol(epochs=0)
    with pytest.raises(ConfigurationError):
        FinetuneProtocol(dropout=1.0)
