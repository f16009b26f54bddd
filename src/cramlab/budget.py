"""FLOP and wallclock accounting for compute budgets.

Two views of compute are reported side by side: the device-peak budget
(peak TFLOP/s times wallclock, the exaFLOP column of the reproduction
table) and the achieved model estimate 6 * params * tokens (forward 2N
plus backward 4N per token).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ConfigurationError
from .model import ModelConfig, param_count

BUDGET_KINDS = ("steps", "seconds")


@dataclass
class DeviceSpec:
    name: str
    peak_tflops: float
    count: int = 1

    def validate(self) -> None:
        if self.peak_tflops <= 0:
            raise ConfigurationError("peak_tflops must be positive")
        if self.count < 1:
            raise ConfigurationError("device count must be positive")


@dataclass
class Budget:
    kind: str = "steps"
    amount: float = 0.0

    def validate(self) -> None:
        if self.kind not in BUDGET_KINDS:
            raise ConfigurationError(f"budget kind must be one of {BUDGET_KINDS}")
        if self.amount < 0:
            raise ConfigurationError("budget amount must be nonnegative")


def total_exaflops(device: DeviceSpec, hours: float) -> float:
    """Device-peak budget over a wallclock interval, in 10^18 FLOP."""
    device.validate()
    if hours <= 0:
        raise ConfigurationError("hours must be positive")
    return device.count * device.peak_tflops * 1e12 * hours * 3600.0 / 1e18


def model_flops_estimate(config: ModelConfig | int, tokens: int) -> float:
    """6 * N * D: forward 2N plus backward 4N FLOPs per token."""
    if tokens < 0:
        raise ConfigurationError("tokens must be nonnegative")
    n = config if isinstance(config, int) else param_count(config)
    return 6.0 * n * tokens


def utilization(flops_used: float, elapsed_seconds: float, device: DeviceSpec) -> float:
    """Achieved model FLOPs as a fraction of the device-peak budget."""
    device.validate()
    if elapsed_seconds <= 0:
        raise ConfigurationError("elapsed time must be positive")
    peak = device.count * device.peak_tflops * 1e12 * elapsed_seconds
    return flops_used / peak


def default_devices_path() -> str:
    return os.path.join(os.path.dirname(__file__), "devices.txt")


def load_devices(path: str | None = None) -> dict[str, DeviceSpec]:
    """Parse the name/TFLOP-per-second table shipped with the package."""
    path = path or default_devices_path()
    out: dict[str, DeviceSpec] = {}
    with open(path, encoding="ascii") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ConfigurationError(f"bad device line: {raw.rstrip()}")
            spec = DeviceSpec(name=parts[0], peak_tflops=float(parts[1]))
            spec.validate()
            out[spec.name] = spec
    return out
