"""Budget accounting tests: the exaFLOP table arithmetic and the 6*N*D
estimator."""

import numpy as np
import pytest

from cramlab.budget import (
    Budget,
    DeviceSpec,
    load_devices,
    model_flops_estimate,
    total_exaflops,
    utilization,
)
from cramlab.errors import ConfigurationError
from cramlab.model import ModelConfig, param_count


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
    spec.count = count
    assert round(total_exaflops(spec, hours)) == expected


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
    spec.count = count
    assert round(total_exaflops(spec, hours)) == expected


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
    with pytest.raises(ConfigurationError):
        total_exaflops(DeviceSpec("bad", peak_tflops=1.0, count=0), 1.0)


def test_model_flops_estimate_linearity():
    cfg = ModelConfig()
    n = param_count(cfg)
    assert model_flops_estimate(cfg, 0) == 0.0
    assert model_flops_estimate(cfg, 10**9) == 6.0 * n * 10**9
    assert model_flops_estimate(cfg, 2_000) == 2 * model_flops_estimate(cfg, 1_000)
    # raw parameter counts work too
    assert model_flops_estimate(1000, 5) == 30000.0
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


def test_budget_validation():
    with pytest.raises(ConfigurationError):
        Budget(kind="epochs", amount=1).validate()
    with pytest.raises(ConfigurationError):
        Budget(kind="steps", amount=-5).validate()
    Budget(kind="seconds", amount=0.0).validate()


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
