"""Budget accounting tests: the exaFLOP table arithmetic, the 6*N*D
estimator and the memory estimate."""

import tracemalloc

import numpy as np
import pytest

from cramlab import budget
from cramlab.budget import (
    DeviceSpec,
    load_devices,
    memory_estimate,
    model_flops_estimate,
    total_exaflops,
    utilization,
)
from cramlab.config import PRESETS, RunConfig, apply_overrides
from cramlab.corpus import PackedDataset
from cramlab.errors import ConfigurationError
from cramlab.harness import run_pretrain
from cramlab.model import ModelConfig, build, param_count
from cramlab.tokenizer import SPECIAL_TOKENS
from cramlab.trainer import ScheduleConfig, pretrain


def test_device_table_ships_published_peaks():
    devices = load_devices()
    peaks = {name: spec.peak_tflops for name, spec in devices.items()}
    assert peaks["rtx2080ti"] == 53.8
    assert peaks["rtxa4000"] == 88.45
    assert peaks["rtxa6000"] == 154.8
    assert peaks["v100"] == 125
    assert peaks["tpuv3"] == 123
    assert peaks["tpuv4"] == 275
    assert peaks["titanrtx"] == 130.5


@pytest.mark.parametrize(
    "device,count,hours,expected",
    [
        ("v100", 8, 11 * 24, 950),
        ("v100", 1472, 47 / 60, 519),
        ("rtx2080ti", 1, 24, 5),
        ("rtxa4000", 1, 24, 8),
        ("rtxa6000", 1, 24, 13),
    ],
)
def test_exaflop_reference_rows(device, count, hours, expected):
    spec = load_devices()[device]
    # count devices for hours give the budget of count * hours device-hours
    assert round(total_exaflops(spec, count * hours)) == expected


@pytest.mark.parametrize(
    "device,count,hours,expected",
    [
        ("tpuv3", 16, 24, 170),
        ("titanrtx", 8, 4 * 24, 361),
        ("tpuv3", 16, 1.75 * 24, 298),
        ("v100", 8, 24, 86),
        ("v100", 1024, 1.25 * 24, 13824),
        ("tpuv4", 6144, 50 * 24, 7299072),
    ],
)
def test_exaflop_further_published_rows(device, count, hours, expected):
    spec = load_devices()[device]
    # count devices for hours give the budget of count * hours device-hours
    assert round(total_exaflops(spec, count * hours)) == expected


def test_exaflop_closed_form():
    spec = DeviceSpec("unit", peak_tflops=1.0)
    # 1 TFLOP/s for 1 hour = 3.6e15 FLOP = 3.6e-3 exaFLOP
    assert total_exaflops(spec, 1.0) == pytest.approx(3.6e-3, rel=1e-12)


def test_exaflop_input_errors():
    spec = DeviceSpec("unit", peak_tflops=1.0)
    with pytest.raises(ConfigurationError):
        total_exaflops(spec, 0.0)
    with pytest.raises(ConfigurationError):
        total_exaflops(DeviceSpec("bad", peak_tflops=0.0), 1.0)


def test_model_flops_estimate_linearity():
    cfg = ModelConfig()
    n = param_count(cfg)
    assert model_flops_estimate(cfg, 0) == 0.0
    assert model_flops_estimate(cfg, 10**9) == 6.0 * n * 10**9
    assert model_flops_estimate(cfg, 2_000) == 2 * model_flops_estimate(cfg, 1_000)
    with pytest.raises(ConfigurationError):
        model_flops_estimate(cfg, -1)


def test_utilization_fraction():
    spec = DeviceSpec("unit", peak_tflops=2.0)
    # 1e12 FLOP in one second on a 2 TFLOP/s device: half the peak
    assert utilization(1e12, 1.0, spec) == pytest.approx(0.5)
    with pytest.raises(ConfigurationError):
        utilization(1e12, 0.0, spec)


def test_utilization_stays_below_one_for_real_runs():
    cfg = ModelConfig(num_layers=2, hidden_dim=128, num_heads=4, ffn_dim=256,
                      vocab_size=4096, seq_len=128)
    flops = model_flops_estimate(cfg, 2_048_000)
    spec = DeviceSpec("rtx2080ti", peak_tflops=53.8)
    u = utilization(flops, 300.0, spec)
    assert 0.0 < u < 1.0


def test_budget_validation(tmp_path):
    # The budget reaches the schedule as its horizon, which may be zero
    # but not negative; a run refuses a negative one before any work.
    with pytest.raises(ConfigurationError, match="horizon"):
        ScheduleConfig(total_steps=-5).validate()
    ScheduleConfig(total_steps=0.0).validate()
    cfg = RunConfig()
    cfg.train.budget_steps = -5
    cfg.tokenizer.input = str(tmp_path / "missing.txt")
    with pytest.raises(ConfigurationError, match="horizon"):
        run_pretrain(cfg, str(tmp_path / "run"))
    assert not (tmp_path / "run").exists()


def test_load_devices_custom_file(tmp_path):
    path = tmp_path / "devices.txt"
    path.write_text("# lab hardware\nworkstation 9.5  # dual card\n\ncluster 100\n",
                    encoding="ascii")
    devices = load_devices(str(path))
    assert devices["workstation"].peak_tflops == 9.5
    assert devices["cluster"].peak_tflops == 100.0


def test_load_devices_rejects_malformed_line(tmp_path):
    path = tmp_path / "devices.txt"
    path.write_text("gpu 12 extra\n", encoding="ascii")
    with pytest.raises(ConfigurationError):
        load_devices(str(path))


# -- memory estimate ----------------------------------------------------------

GiB = 2 ** 30


def _train_config(preset: str, **model) -> RunConfig:
    cfg = RunConfig()
    apply_overrides(cfg, PRESETS[preset])
    shape = dict(num_layers=2, hidden_dim=64, num_heads=2, ffn_dim=256,
                 vocab_size=2048, seq_len=64)
    shape.update(model)
    for key, value in shape.items():
        setattr(cfg.model, key, value)
    cfg.tokenizer.vocab_size, cfg.pipeline.seq_len = cfg.model.vocab_size, cfg.model.seq_len
    cfg.train.micro_batch, cfg.train.final_batch = 8, 16
    cfg.train.budget_steps = 2
    cfg.validate()
    return cfg


@pytest.mark.parametrize("preset, model", [
    ("crammed", {}),
    ("crammed", {"embedding_kind": "rotary"}),
    ("minimal_arch", {}),
    ("original_arch", {}),
    ("original_train", {}),
    ("original_arch", {"hidden_dim": 128, "vocab_size": 8192, "seq_len": 128}),
])
def test_memory_estimate_bounds_traced_training_peak(preset, model):
    # Two steps of two accumulated micro-batches each take every
    # allocation a run makes: activations, gradients, Adam state. The
    # estimate must cover the traced peak without overstating it much,
    # or it would refuse runs that fit.
    cfg = _train_config(preset, **model)
    m = cfg.model
    rng = np.random.default_rng(5)
    seqs = rng.integers(len(SPECIAL_TOKENS), m.vocab_size, (64, m.seq_len)).astype(np.int32)
    ds = PackedDataset(seqs, m.vocab_size)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        pretrain(build(m, seed=0), ds, cfg.train, curve_interval=1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    estimate = memory_estimate(m, cfg.train.micro_batch, cfg.train.mask_rate)
    assert peak <= estimate <= 1.3 * peak


def test_memory_estimate_grows_with_micro_batch():
    cfg = RunConfig().model
    small, large = memory_estimate(cfg, 8, 0.15), memory_estimate(cfg, 16, 0.15)
    assert 4 * 5 * param_count(cfg) < small < large
    with pytest.raises(ConfigurationError):
        memory_estimate(cfg, 0, 0.15)


def test_default_paper_config_is_refused_at_8_gib(monkeypatch, tmp_path):
    monkeypatch.setattr(budget, "available_memory", lambda: 8 * GiB)
    cfg = RunConfig()  # crammed at BERT-base shape, micro-batch 128
    cfg.train.budget_hours = 24.0
    fits = max(b for b in range(1, 129) if memory_estimate(cfg.model, b, 0.15) <= 8 * GiB)
    assert 8 <= fits < 128
    cfg.tokenizer.input = str(tmp_path / "missing.txt")
    run_dir = tmp_path / "run"
    with pytest.raises(ConfigurationError, match=f"largest micro-batch that fits is {fits}$"):
        run_pretrain(cfg, str(run_dir))
    assert not run_dir.exists()  # refused before any work


@pytest.mark.parametrize("preset, shape, micro_batch", [
    ("crammed", dict(num_layers=4, hidden_dim=256, num_heads=4, ffn_dim=1024,
                     vocab_size=8192, seq_len=128), 16),
    ("original_arch", dict(num_layers=2, hidden_dim=512, num_heads=8, ffn_dim=2048,
                           vocab_size=32768, seq_len=128), 8),
])
def test_benchmark_configs_fit_in_8_gib(monkeypatch, preset, shape, micro_batch):
    monkeypatch.setattr(budget, "available_memory", lambda: 8 * GiB)
    cfg = _train_config(preset, **shape)
    budget.check_memory(cfg.model, micro_batch, cfg.train.mask_rate)


def test_memory_check_names_when_nothing_fits(monkeypatch):
    monkeypatch.setattr(budget, "available_memory", lambda: 2 ** 20)
    with pytest.raises(ConfigurationError, match="no micro-batch fits"):
        budget.check_memory(RunConfig().model, 1, 0.15)
    monkeypatch.setattr(budget, "available_memory", lambda: None)
    budget.check_memory(RunConfig().model, 128, 0.15)  # unknown: no check
