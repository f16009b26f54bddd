"""FLOP, wallclock and memory accounting for compute budgets.

Two views of compute are reported side by side: the device-peak budget
(peak TFLOP/s times wallclock, the exaFLOP column of the reproduction
table) and the achieved model estimate 6 * params * tokens (forward 2N
plus backward 4N per token). memory_estimate bounds the bytes a
pretraining run needs, so a run that cannot fit fails before it starts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import ConfigurationError
from .model import ModelConfig, param_count, param_layout
from .serde import read_text
from .tensor import STREAM_BLOCK


@dataclass(frozen=True)
class DeviceSpec:
    name: str
    peak_tflops: float

    def __post_init__(self) -> None:
        if not 0 < self.peak_tflops < math.inf:
            raise ConfigurationError("peak_tflops must be positive and finite")


def total_exaflops(device: DeviceSpec, hours: float) -> float:
    """Device-peak budget over a wallclock interval, in 10^18 FLOP."""
    if hours <= 0:
        raise ConfigurationError("hours must be positive")
    return device.peak_tflops * 1e12 * hours * 3600.0 / 1e18


def model_flops_estimate(config: ModelConfig, tokens: int) -> float:
    """6 * N * D: forward 2N plus backward 4N FLOPs per token."""
    if tokens < 0:
        raise ConfigurationError("tokens must be nonnegative")
    return 6.0 * param_count(config) * tokens


def utilization(flops_used: float, elapsed_seconds: float, device: DeviceSpec) -> float:
    """Achieved model FLOPs as a fraction of the device-peak budget."""
    if elapsed_seconds <= 0:
        raise ConfigurationError("elapsed time must be positive")
    return flops_used / (total_exaflops(device, elapsed_seconds / 3600.0) * 1e18)


def _activation_floats(config: ModelConfig, mask_rate: float) -> int:
    """float32 values one sequence adds to a training micro-batch's peak.

    Counts the buffers each op keeps for backward at the end of the
    forward pass (the tape frees them as backward proceeds), plus the
    loss head's and the top block's FFN backward temporaries. Checked
    against tracemalloc peaks of whole runs in tests/test_budget.py.
    """
    S, d, f, H, V = (config.seq_len, config.hidden_dim, config.ffn_dim,
                     config.num_heads, config.vocab_size)
    # Only inputs that some backward reads are kept: a sum, a sublayer's
    # output projection or a dropout output that feeds only an add or a
    # norm is freed once the forward has moved past it. A norm or GELU
    # output that feeds a product is rebuilt in the product's backward,
    # so it is not kept either.
    dropout = config.dropout_rate > 0
    # Per block: norms keep x-hat, q/k/v their products (attention builds
    # its per-head views from them), then the context, and each dropout
    # its mask. A bias is added into its product, so it keeps no buffer
    # of its own.
    per_sd = 6 + 2 * dropout
    # The FFN input projection, plus Phi (half width for the gated unit).
    per_sf = 1.5 if config.ffn_kind == "glu_gelu" else 2.0
    # Attention's per-row score max and sum, one each per head; backward
    # recomputes the probabilities from them.
    per_sh = 2 * H
    blocks = config.num_layers * S * (per_sd * d + per_sf * f + per_sh)
    # The embedding and final norms' x-hat, and the embedding dropout's
    # mask and output (post-norm, the first block's q/k/v keep it).
    embed_sd = config.embedding_norm + config.final_norm + 2 * dropout
    masked = math.ceil(mask_rate * S)
    rows = masked if config.sparse_prediction else S
    # The gathered rows a sparse head reads, and a nonlinear head's
    # projection, Phi and norm x-hat.
    head = rows * d * (config.sparse_prediction + 3 * config.nonlinear_head)
    # Only masked rows are decoded, into one logits buffer that the
    # fused loss exponentiates in place and backward turns into their
    # gradient.
    head += masked * V
    # The backward pass of the top block runs while its inputs still
    # live: two gradient buffers of FFN width. Attention's backward
    # scratch is one row block per run, counted in memory_estimate.
    return math.ceil(blocks + S * d * embed_sd + head + 2 * S * f)


def memory_estimate(config: ModelConfig, micro_batch: int, mask_rate: float) -> int:
    """Peak bytes a float32 pretraining run at this shape adds to the process.

    A line in the micro-batch. Per run: four parameter-sized copies (the
    parameters, their gradients, Adam's m and v), the largest parameter's
    gradient product, which backward makes while the activations live,
    and attention's backward scratch: tensor.attend keeps two floats per
    score row and recomputes one row block's probabilities at a time, so
    its scratch does not grow with the micro-batch. Per sequence: its
    activations, the largest at a 32k vocabulary being the masked rows'
    one logits buffer (tensor.decoder_cross_entropy). The prepared
    dataset is mapped from its file and is not part of it.
    """
    if micro_batch < 1:
        raise ConfigurationError("micro_batch must be positive")
    sizes = [math.prod(shape) for shape, _ in param_layout(config).values()]
    # tensor.attend's backward holds one row block (row_blocks' step) of
    # probabilities, their score gradient and its product with them.
    scores = config.num_heads * config.seq_len ** 2
    run = 4 * sum(sizes) + max(sizes) + 3 * max(1, STREAM_BLOCK // scores) * scores
    return 4 * (run + micro_batch * _activation_floats(config, mask_rate))


def available_memory() -> int | None:
    """Bytes this process can still allocate: MemAvailable, or the
    cgroup memory limit when that is lower; None when neither is known."""
    known = []
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    known.append(int(line.split()[1]) * 1024)
    except OSError:
        pass
    for path in ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes"):
        try:
            with open(path, encoding="ascii") as fh:
                text = fh.read().strip()
        except OSError:
            continue
        if text.isdigit():
            known.append(int(text))
    return min(known) if known else None


def check_memory(config: ModelConfig, micro_batch: int, mask_rate: float) -> None:
    """Raise ConfigurationError when the run cannot fit in available memory,
    naming the largest micro-batch that would, solved on the estimate's line."""
    free = available_memory()
    need = memory_estimate(config, micro_batch, mask_rate)
    if free is None or need <= free:
        return
    one = memory_estimate(config, 1, mask_rate)
    fits = max(0, (free - one) // (memory_estimate(config, 2, mask_rate) - one) + 1)
    hint = (f"the largest micro-batch that fits is {fits}" if fits
            else "no micro-batch fits at this model shape")
    raise ConfigurationError(
        f"train.micro_batch {micro_batch} needs about {need / 2**20:.0f} MiB but only "
        f"{free / 2**20:.0f} MiB is available; {hint}")


def default_devices_path() -> str:
    return os.path.join(os.path.dirname(__file__), "devices.txt")


def load_devices(path: str | None = None) -> dict[str, DeviceSpec]:
    """Parse the name/TFLOP-per-second table shipped with the package."""
    path = path or default_devices_path()
    out: dict[str, DeviceSpec] = {}
    for n, raw in enumerate(read_text(path, "ascii").split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            name, peak = line.split()
            spec = DeviceSpec(name=name, peak_tflops=float(peak))
        except ValueError as exc:
            raise ConfigurationError(
                f"{path}:{n}: bad device line: {raw.rstrip()} ({exc})") from None
        out[spec.name] = spec
    return out
