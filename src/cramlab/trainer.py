"""Budget-tied training recipe and the downstream finetuning protocol.

Pretraining: masked-token objective, bias-corrected Adam with decoupled
weight decay, global-norm clipping, a one-cycle learning rate and a
linear micro-batch accumulation ramp, both tied to the budget through one
progress clock (steps, or seconds under a wallclock budget). The
recipe's configs are frozen values that check themselves when built, so
the code that takes one never checks it again. A run config's train
section, TrainSection, builds them, and its horizon() is the budget,
which pretrain takes once, as the schedule's total_steps. The loop is
single-epoch: sequences are consumed in dataset order and never
revisited. Training micro-batches apply model.dropout_rate; the step-0
evaluation runs without dropout.
All randomness flows through one seeded generator, so a fixed (seed,
config, data) triple reproduces runs bit for bit in step-budget mode.

One update rule serves pretraining and finetuning: _update zeroes the
gradients, backpropagates each of a step's n batches at 1/n, refuses a
non-finite mean loss, clips the global gradient norm and takes one Adam
step. Each completed pretraining step makes one CurvePoint, kept every
curve_interval steps and as the closing point.

Divergence handling, one rule for every optimizer step: _update runs it
with the per-op finiteness guard off and checks the step loss and the
gradient norm before the Adam update. A non-finite one aborts the step,
whose forwards are replayed with the guard on from the same generator
state, so the error names the op that first produced a non-finite value.
A failed step never reaches the parameters.
"""

from __future__ import annotations

import math
import time
from dataclasses import Field, dataclass, fields, make_dataclass
from typing import get_type_hints

import numpy as np

from .errors import ConfigurationError, ContractError
from .model import Model
from .serde import read_text
from .tensor import (
    Tape, Tensor, cross_entropy_from_logits, dropout, gather_rows, matmul, mul, reshape,
    row_blocks, set_finite_checks, truncated_normal,
)
from .tokenizer import CLS_ID, MASK_ID, PAD_ID, SEP_ID, WordPieceModel

SCHEDULE_KINDS = ("one_cycle", "cosine_decay", "linear_decay", "constant")


@dataclass(frozen=True)
class MaskingConfig:
    mask_rate: float = 0.15
    p_mask: float = 0.8
    p_random: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.mask_rate <= 1.0:
            raise ConfigurationError("masking rate must be within [0, 1]")
        if min(self.p_mask, self.p_random) < 0:
            raise ConfigurationError("treatment probabilities must be nonnegative")
        if self.p_mask + self.p_random > 1:
            raise ConfigurationError("p_mask + p_random must be at most 1")


@dataclass(frozen=True)
class OptimizerConfig:
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-12
    weight_decay: float = 0.01
    clip_norm: float | None = 0.5

    def __post_init__(self) -> None:
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigurationError("betas must be in [0, 1)")
        if self.eps <= 0:
            raise ConfigurationError("eps must be positive")
        if self.weight_decay < 0:
            raise ConfigurationError("weight_decay must be nonnegative")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ConfigurationError("clip_norm must be positive when set")


@dataclass(frozen=True)
class ScheduleConfig:
    schedule_kind: str = "one_cycle"
    peak_lr: float = 1e-3
    peak_fraction: float = 0.5
    total_steps: float = 0  # the horizon: steps, or seconds under a wallclock budget

    def __post_init__(self) -> None:
        if self.schedule_kind not in SCHEDULE_KINDS:
            raise ConfigurationError(f"unknown schedule kind {self.schedule_kind!r}")
        if self.peak_lr <= 0:
            raise ConfigurationError("peak_lr must be positive")
        if not 0 < self.peak_fraction < 1:
            raise ConfigurationError("peak_fraction must be in (0, 1)")
        if self.total_steps < 0:
            raise ConfigurationError("the schedule's horizon must be nonnegative")


@dataclass(frozen=True)
class BatchRampConfig:
    micro_batch: int = 128
    final_batch: int = 4096
    ramp_end_fraction: float = 0.6

    def __post_init__(self) -> None:
        if self.micro_batch < 1:
            raise ConfigurationError("micro_batch must be positive")
        if self.final_batch < self.micro_batch:
            raise ConfigurationError("final_batch must be >= micro_batch")
        if not 0 <= self.ramp_end_fraction <= 1:
            raise ConfigurationError("ramp_end_fraction must be in [0, 1]")

    def factor(self) -> int:
        return max(1, _round_half_up(self.final_batch / self.micro_batch))


# A train.* key is the trainer config field's own name;
# ScheduleConfig.total_steps is the section's horizon().
_TRAIN_PARTS = (ScheduleConfig, BatchRampConfig, OptimizerConfig, MaskingConfig)


def _train_fields(part) -> list[Field]:
    return [f for f in fields(part) if f.name != "total_steps"]


_TrainFields = make_dataclass("_TrainFields", [
    (f.name, get_type_hints(part)[f.name], f.default)
    for part in _TRAIN_PARTS for f in _train_fields(part)])


@dataclass
class TrainSection(_TrainFields):
    """A run's train section: the fields of the _TRAIN_PARTS, as declared
    there, then the budget and the seed."""
    budget_steps: int | None = None
    budget_hours: float | None = None
    seed: int = 0

    def _build(self, part, **runtime):
        return part(**{f.name: getattr(self, f.name) for f in _train_fields(part)}, **runtime)

    def schedule(self, total_steps: int = 0) -> ScheduleConfig:
        return self._build(ScheduleConfig, total_steps=total_steps)

    def ramp(self) -> BatchRampConfig:
        return self._build(BatchRampConfig)

    def optimizer(self) -> OptimizerConfig:
        return self._build(OptimizerConfig)

    def masking(self) -> MaskingConfig:
        return self._build(MaskingConfig)

    def horizon(self) -> float:
        """The budget in the progress clock's unit: budget_steps as given,
        or budget_hours in seconds."""
        if (self.budget_steps is None) == (self.budget_hours is None):
            raise ConfigurationError(
                "exactly one of train.budget_steps / train.budget_hours required"
            )
        if self.budget_steps is not None:
            return self.budget_steps
        return self.budget_hours * 3600.0

    def validate(self) -> None:
        for part in _TRAIN_PARTS:
            self._build(part)  # a part checks itself when built
        if self.seed < 0:
            raise ConfigurationError("train.seed must be nonnegative")


@dataclass(frozen=True)
class FinetuneProtocol:
    epochs: int = 5
    batch_size: int = 16
    lr: float = 4e-5
    dropout: float = 0.1

    def __post_init__(self) -> None:
        if not 1 <= self.epochs <= 5:
            raise ConfigurationError("epochs must be within [1, 5]")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be positive")
        if self.lr <= 0:
            raise ConfigurationError("lr must be positive")
        if not 0 <= self.dropout < 1:
            raise ConfigurationError("dropout must be in [0, 1)")


@dataclass
class CurvePoint:
    step: int
    tokens: int
    lr: float
    loss: float
    seconds: float


class LossCurve:
    """Ordered (tokens, loss) trajectory of one run."""

    def __init__(self, points: list[CurvePoint] | None = None):
        self.points: list[CurvePoint] = []
        for p in points or []:
            self.append(p)

    def append(self, point: CurvePoint) -> None:
        if not all(map(math.isfinite, (point.lr, point.loss, point.seconds))):
            raise ContractError("curve lr, loss and seconds must be finite")
        if self.points:
            last = self.points[-1]
            if point.tokens <= last.tokens:
                raise ContractError("curve tokens must be strictly increasing")
            if point.seconds < last.seconds:
                raise ContractError("curve seconds must be nondecreasing")
        self.points.append(point)

    def __len__(self) -> int:
        return len(self.points)

    def tokens(self) -> np.ndarray:
        return np.asarray([p.tokens for p in self.points], dtype=np.float64)

    def losses(self) -> np.ndarray:
        return np.asarray([p.loss for p in self.points], dtype=np.float64)

    def to_csv_text(self) -> str:
        lines = ["step,tokens,lr,loss,seconds"]
        for p in self.points:
            lines.append(f"{p.step},{p.tokens},{p.lr!r},{p.loss!r},{p.seconds!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, path: str) -> "LossCurve":
        lines = [(n, ln.strip()) for n, ln in enumerate(read_text(path, "ascii").split("\n"), 1)
                 if ln.strip()]
        if not lines or lines[0][1] != "step,tokens,lr,loss,seconds":
            raise ContractError(f"{path}: not a curve file")
        curve = cls()
        for n, ln in lines[1:]:
            try:
                s, t, lr, loss, sec = ln.split(",")
                curve.append(CurvePoint(int(s), int(t), float(lr), float(loss), float(sec)))
            except ValueError:
                raise ContractError(f"{path}:{n}: malformed curve row {ln!r}") from None
            except ContractError as exc:  # out of order or non-finite
                raise ContractError(f"{path}:{n}: {exc}") from None
        return curve


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def mask_batch(
    seqs: np.ndarray,
    cfg: MaskingConfig,
    rng: np.random.Generator,
    vocab_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply masked-token corruption to a (B, S) batch.

    Returns (inputs, flat_positions, labels). Positions index the
    flattened batch row-major; labels hold the original ids there.
    <sep> and <pad> are never selected. A row in which the independent
    mask_rate draw selects nothing gets one forced label position whose
    input stays unchanged.
    """
    seqs = np.asarray(seqs)
    if (seqs == MASK_ID).any():
        raise ContractError("input sequences already contain <mask>")
    B, S = seqs.shape
    u_sel = rng.random((B, S))
    eligible = (seqs != SEP_ID) & (seqs != PAD_ID)
    selected = (u_sel < cfg.mask_rate) & eligible

    forced: list[int] = []
    empty_rows = np.flatnonzero(~selected.any(axis=1))
    for row in empty_rows:
        cand = np.flatnonzero(eligible[row])
        if cand.size == 0:
            continue
        pos = int(cand[rng.integers(0, cand.size)])
        forced.append(row * S + pos)

    organic = np.flatnonzero(selected.ravel())
    inputs = seqs.copy()
    if organic.size:
        u_treat = rng.random(organic.size)
        to_mask = organic[u_treat < cfg.p_mask]
        to_random = organic[(u_treat >= cfg.p_mask) & (u_treat < cfg.p_mask + cfg.p_random)]
        inputs.ravel()[to_mask] = MASK_ID
        if to_random.size:
            inputs.ravel()[to_random] = rng.integers(0, vocab_size, to_random.size)

    positions = np.sort(np.concatenate([organic, np.asarray(forced, dtype=np.int64)]))
    positions = positions.astype(np.int64)
    labels = seqs.ravel()[positions]
    return inputs, positions, labels


def lr_at(step: float, cfg: ScheduleConfig) -> float:
    """Learning rate at a point of the schedule, in total_steps' unit."""
    T = cfg.total_steps
    if T <= 0:
        raise ContractError("schedule total_steps not set")
    if step < 0 or step > T:
        raise ContractError(f"step {step} outside [0, {T}]")
    if cfg.schedule_kind == "constant":
        return cfg.peak_lr
    if cfg.schedule_kind == "cosine_decay":
        return cfg.peak_lr * 0.5 * (1.0 + math.cos(math.pi * step / T))
    if cfg.schedule_kind == "linear_decay":
        return cfg.peak_lr * (T - step) / T
    # one_cycle: linear up to the peak, linear down to 0.
    peak_step = cfg.peak_fraction * T
    if step <= peak_step:
        return cfg.peak_lr * (step / peak_step)
    return cfg.peak_lr * ((T - step) / (T - peak_step))


def accumulation_at(step: float, cfg: BatchRampConfig, total_steps: float) -> int:
    """Micro-batches accumulated at a point of the budget: 1 rising
    linearly to final/micro by ramp_end_fraction of it, constant after."""
    if total_steps <= 0:
        raise ContractError("total_steps not set")
    factor = cfg.factor()
    ramp_end = cfg.ramp_end_fraction * total_steps
    if step >= ramp_end:
        return factor
    value = 1.0 + (factor - 1.0) * (step / ramp_end)
    return max(1, _round_half_up(value))


class AdamState:
    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0


def adam_step(
    params: dict[str, Tensor],
    state: AdamState,
    lr: float,
    cfg: OptimizerConfig,
    decay_exempt=None,
) -> None:
    """Bias-corrected Adam with decoupled weight decay.

    Decay multiplies parameters by (1 - lr*wd) before the moment-based
    update; decay_exempt(name) skips it (layer norms, positional scale).

    Each parameter is walked in blocks of STREAM_BLOCK elements through
    two block-sized scratch buffers, so the step makes no temporary the
    size of a parameter and each block stays in cache between its ufunc
    calls. Every element sees the same float32 ufuncs in the same order
    as the expression form `m = b1*m + (1-b1)*g`, `v = b2*v + (1-b2)*g*g`,
    `p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)`, so the result is bit for
    bit that form's.
    """
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if not p.data.flags.c_contiguous:
            # The blocks are views of a flat reshape, which for any other
            # layout would be a copy that the update never reaches.
            raise ContractError(f"adam_step: parameter {name} is not C-contiguous")
        m = state.m.get(name)
        if m is None:
            # np.zeros maps lazily zeroed pages; zeros_like writes every zero.
            m = state.m[name] = np.zeros(p.data.shape, p.data.dtype)
            state.v[name] = np.zeros(p.data.shape, p.data.dtype)
        v = state.v[name]
        decay = cfg.weight_decay and not (decay_exempt and decay_exempt(name))
        pf, gf, mf, vf = (x.reshape(-1) for x in (p.data, g, m, v))
        width, blocks = row_blocks(pf.size, 1)
        scratch_a = np.empty(width, pf.dtype)
        scratch_b = np.empty_like(scratch_a)
        for blk in blocks:
            pb, gb, mb, vb = pf[blk], gf[blk], mf[blk], vf[blk]
            a, b = scratch_a[:pb.size], scratch_b[:pb.size]
            mb *= cfg.beta1
            np.multiply(gb, 1.0 - cfg.beta1, out=a)
            mb += a
            vb *= cfg.beta2
            np.multiply(gb, gb, out=a)
            a *= 1.0 - cfg.beta2
            vb += a
            if decay:
                pb *= 1.0 - lr * cfg.weight_decay
            np.divide(mb, bc1, out=a)
            a *= lr
            np.divide(vb, bc2, out=b)
            np.sqrt(b, out=b)
            b += cfg.eps
            a /= b
            pb -= a


def clip_gradients(grads, clip_norm: float | None) -> float:
    """Scale gradients in place so the global L2 norm is at most
    clip_norm; returns the pre-clip norm. A non-finite norm raises
    FloatingPointError before any gradient is scaled."""
    grads = [g for g in grads if g is not None]
    sq = 0.0
    for g in grads:
        r = g.ravel()
        sq += float(np.einsum("i,i->", r, r, dtype=np.float64))
    total = math.sqrt(sq)
    # float64 sums of float32 squares cannot overflow, so a non-finite
    # norm means a non-finite gradient entry.
    if not math.isfinite(total):
        raise FloatingPointError("non-finite gradient norm")
    if clip_norm is not None and total > clip_norm and total > 0:
        factor = clip_norm / total
        for g in grads:
            g *= factor
    return total


@dataclass
class PretrainResult:
    """A run's curve and, if it aborted, why. The run's progress is the
    curve's last point: steps and tokens read it, 0 for an empty curve."""
    curve: LossCurve
    abort_reason: str | None = None

    @property
    def steps(self) -> int:
        return self.curve.points[-1].step if len(self.curve) else 0

    @property
    def tokens(self) -> int:
        return self.curve.points[-1].tokens if len(self.curve) else 0

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None


def _update(params: dict[str, Tensor], state: AdamState, lr: float, cfg: OptimizerConfig,
            loss_of, batches, rng: np.random.Generator) -> float:
    """One optimizer step over the mean of loss_of(batch), which it
    returns, run with the per-op guard and numpy's float warnings off.
    A non-finite mean or gradient norm raises before adam_step; the
    batches are then replayed from rng's saved state with the guard on,
    outside any tape, so the error names the first non-finite op, or is
    the step check's own when every op output is finite."""
    rng_state = rng.bit_generator.state
    checks_state = set_finite_checks(False)
    err_state = np.seterr(over="ignore", invalid="ignore", divide="ignore")
    try:
        for p in params.values():
            p.zero_grad()
        mean = 0.0
        for batch in batches:
            with Tape() as tape:
                loss = loss_of(batch)
                tape.backward(mul(loss, 1.0 / len(batches)))
            mean += loss.item() / len(batches)
        if not math.isfinite(mean):
            raise FloatingPointError("non-finite training loss")
        clip_gradients((p.grad for p in params.values()), cfg.clip_norm)
    except FloatingPointError:
        rng.bit_generator.state = rng_state
        set_finite_checks(True)
        for batch in batches:
            loss_of(batch)
        raise
    finally:
        np.seterr(**err_state)
        set_finite_checks(checks_state)
    adam_step(params, state, lr, cfg, Model.decay_exempt)
    return mean


def planned_samples(schedule: ScheduleConfig, ramp: BatchRampConfig) -> int:
    """Sequences an uninterrupted step-budget run would consume."""
    total = 0
    for step in range(schedule.total_steps):
        total += accumulation_at(step, ramp, schedule.total_steps) * ramp.micro_batch
    return total


def pretrain(
    model: Model,
    dataset,
    train: TrainSection,
    *,
    curve_interval: int,
) -> PretrainResult:
    """Run the pretraining loop until the budget or the data runs out.

    train is the run's train section, and its horizon() is the budget.
    The model is updated in place and no file is written. A step starts
    only while the progress clock, read once at its start, is below the
    budget, and takes its lr and micro-batch count from that reading.
    The curve ends at the last completed step, also when a step aborts,
    and the model holds that step's parameters. In step-budget mode the
    curve's seconds column is written as 0.0 so identical runs produce
    byte-identical curve files; wallclock mode records elapsed time.
    """
    # One progress clock drives the schedule, the ramp and the stop rule:
    # completed steps, or elapsed seconds under a wallclock budget.
    sched = train.schedule(train.horizon())
    ramp, optimizer, masking = train.ramp(), train.optimizer(), train.masking()
    if dataset.sequence_count < ramp.micro_batch:
        raise ConfigurationError("dataset smaller than one micro-batch")
    if curve_interval < 1:
        raise ConfigurationError("curve_interval must be positive")

    rng = np.random.default_rng(train.seed)
    eval_rng = np.random.default_rng(train.seed + 1)
    wallclock_mode = train.budget_hours is not None
    curve = LossCurve()
    state = AdamState()

    start = time.monotonic()
    seqs = dataset.sequences
    cursor = 0
    step = 0
    abort_reason = None

    def elapsed() -> float:
        return time.monotonic() - start

    def progress() -> float:
        return elapsed() if wallclock_mode else step

    def curve_seconds() -> float:
        return elapsed() if wallclock_mode else 0.0

    def micro_batch_loss(row: int, gen: np.random.Generator = rng,
                         dropout_rate: float = model.config.dropout_rate) -> Tensor:
        # gen draws the masking, then the dropout masks.
        batch = seqs[row:row + ramp.micro_batch]
        inputs, positions, labels = mask_batch(batch, masking, gen, dataset.vocab_size)
        return model.loss(inputs, positions, labels, dropout_rate=dropout_rate, rng=gen)

    if sched.total_steps > 0:
        step0_loss = micro_batch_loss(0, eval_rng, 0.0).item()
        curve.append(CurvePoint(0, 0, 0.0, step0_loss, curve_seconds()))

    try:
        while (now := progress()) < sched.total_steps:
            acc = accumulation_at(now, ramp, sched.total_steps)
            rows = range(cursor, cursor + acc * ramp.micro_batch, ramp.micro_batch)
            if rows.stop > seqs.shape[0]:
                break  # single epoch: not enough rows for a full step
            lr = lr_at(now, sched)
            loss = _update(model.params, state, lr, optimizer, micro_batch_loss, rows, rng)
            step, cursor = step + 1, rows.stop
            point = CurvePoint(step, cursor * seqs.shape[1], lr, loss, curve_seconds())
            if step % curve_interval == 0:
                curve.append(point)
    except FloatingPointError as exc:
        abort_reason = f"{exc} at step {step + 1}"
    if step % curve_interval:
        curve.append(point)  # the last completed step, off the interval
    return PretrainResult(curve, abort_reason)


# ---------------------------------------------------------------------------
# Finetuning


@dataclass
class TaskExample:
    text: str
    text2: str | None
    label: str


def load_task(path: str) -> list[TaskExample]:
    """Tab-separated rows: text[<tab>text2]<tab>label."""
    examples: list[TaskExample] = []
    for n, line in enumerate(read_text(path).split("\n"), 1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) == 2:
            examples.append(TaskExample(cols[0], None, cols[1]))
        elif len(cols) == 3:
            examples.append(TaskExample(cols[0], cols[1], cols[2]))
        else:
            raise ConfigurationError(f"{path}:{n}: task row needs 2 or 3 columns: {line!r}")
    return examples


def encode_task_batch(
    wp: WordPieceModel, examples: list[TaskExample], seq_len: int
) -> np.ndarray:
    """<cls> text [<sep> text2], truncated to seq_len, padded with <pad>."""
    out = np.full((len(examples), seq_len), PAD_ID, dtype=np.int32)
    for i, ex in enumerate(examples):
        ids = [CLS_ID] + wp.encode(ex.text)
        if ex.text2 is not None:
            ids += [SEP_ID] + wp.encode(ex.text2)
        ids = ids[:seq_len]
        out[i, : len(ids)] = ids
    return out


@dataclass
class FinetuneMetrics:
    accuracy: float
    matthews: float


def matthews_correlation(true_ids: np.ndarray, pred_ids: np.ndarray, n_classes: int) -> float:
    """Multiclass Matthews correlation from the confusion counts."""
    n = true_ids.size
    if n == 0:
        return 0.0
    correct = float(np.sum(true_ids == pred_ids))
    t_counts = np.bincount(true_ids, minlength=n_classes).astype(np.float64)
    p_counts = np.bincount(pred_ids, minlength=n_classes).astype(np.float64)
    cov_tp = correct * n - float(t_counts @ p_counts)
    cov_pp = float(n * n - p_counts @ p_counts)
    cov_tt = float(n * n - t_counts @ t_counts)
    if cov_pp <= 0 or cov_tt <= 0:
        return 0.0
    return cov_tp / math.sqrt(cov_pp * cov_tt)


def finetune(
    model: Model,
    wp: WordPieceModel,
    train_examples: list[TaskExample],
    protocol: FinetuneProtocol,
    seed: int = 0,
    eval_examples: list[TaskExample] | None = None,
) -> FinetuneMetrics:
    """Full-model finetuning with a fresh linear head on <cls>.

    Updates the model in place; callers comparing seeds give each call
    a fresh load of the checkpoint. Reports accuracy on eval_examples
    (train set when absent). A diverging step raises FloatingPointError
    naming the op and the step, as pretrain's abort reason does.
    """
    if not train_examples:
        raise ConfigurationError("empty task")
    if wp.vocab_size != model.config.vocab_size:
        raise ConfigurationError(f"vocabulary of {wp.vocab_size} tokens does not match "
                                 f"the model's vocab_size {model.config.vocab_size}")
    optimizer = OptimizerConfig()
    labels = sorted({ex.label for ex in train_examples})
    if len(labels) < 2:
        raise ConfigurationError("task needs at least two classes")
    label_id = {name: i for i, name in enumerate(labels)}
    eval_examples = eval_examples if eval_examples is not None else train_examples
    if not eval_examples:
        raise ConfigurationError("empty eval task")
    for ex in eval_examples:
        if ex.label not in label_id:
            raise ConfigurationError(f"eval label {ex.label!r} unseen in training")

    cfg = model.config
    rng = np.random.default_rng(seed)
    d = cfg.hidden_dim
    n_classes = len(labels)
    head_w = Tensor(truncated_normal((d, n_classes), 0.02, rng, model.dtype),
                    requires_grad=True, name="cls_head_w")
    head_b = Tensor(np.zeros(n_classes, model.dtype), requires_grad=True,
                    name="cls_head_b")
    trainable = {**model.params, "cls_head_w": head_w, "cls_head_b": head_b}

    x_train = encode_task_batch(wp, train_examples, cfg.seq_len)
    y_train = np.asarray([label_id[ex.label] for ex in train_examples], dtype=np.int64)

    n = len(train_examples)
    bs = protocol.batch_size
    batches_per_epoch = (n + bs - 1) // bs
    total_steps = protocol.epochs * batches_per_epoch
    sched = ScheduleConfig(schedule_kind="cosine_decay", peak_lr=protocol.lr,
                           total_steps=total_steps)
    state = AdamState()

    def class_logits(ids_batch: np.ndarray, train_mode: bool) -> Tensor:
        key_mask = ids_batch != PAD_ID
        rate = protocol.dropout if train_mode else 0.0
        hidden = model.encode(ids_batch, key_mask=key_mask,
                              dropout_rate=rate, rng=rng if train_mode else None)
        B, S, _ = hidden.shape
        flat = reshape(hidden, (B * S, d))
        cls_h = dropout(gather_rows(flat, np.arange(B) * S), rate, rng)
        return matmul(cls_h, head_w, head_b)

    def batch_loss(rows: np.ndarray) -> Tensor:
        logits = class_logits(x_train[rows], train_mode=True)
        return cross_entropy_from_logits(logits, y_train[rows])

    step = 0
    for _ in range(protocol.epochs):
        order = rng.permutation(n)
        for b in range(batches_per_epoch):
            rows = order[b * bs:(b + 1) * bs]
            try:
                _update(trainable, state, lr_at(step, sched), optimizer, batch_loss, [rows], rng)
            except FloatingPointError as exc:
                raise FloatingPointError(f"{exc} at step {step + 1}") from exc
            step += 1

    x_eval = encode_task_batch(wp, eval_examples, cfg.seq_len)
    y_eval = np.asarray([label_id[ex.label] for ex in eval_examples], dtype=np.int64)
    preds = np.empty_like(y_eval)
    for b in range(0, len(eval_examples), 64):
        logits = class_logits(x_eval[b:b + 64], train_mode=False)
        preds[b:b + 64] = np.argmax(logits.data, axis=1)
    return FinetuneMetrics(float(np.mean(preds == y_eval)),
                           matthews_correlation(y_eval, preds, n_classes))
