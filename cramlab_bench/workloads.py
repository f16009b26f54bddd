"""The benchmark's workloads: their configurations, seeded set-up, the
untraced end-to-end loop and its correctness gates, and the gates of the
corpus preparation that the desk workload's traced run times.

Every workload is a closed loop with one caller: the next call starts
only after the previous one returned.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from cramlab.checkpoint import blob_path, load_checkpoint
from cramlab.config import PRESETS, RunConfig, apply_overrides
from cramlab.corpus import corpus_stats, load_dataset, pack, save_dataset
from cramlab.harness import PreparedData, prepare, run_pretrain
from cramlab.model import Model, build
from cramlab.tensor import Tape, tsum
from cramlab.tokenizer import Vocab
from cramlab.trainer import planned_samples

from inputs import text_corpus, token_entries
from timing import clock, median, peak_rss_mib, timed

SEQ_LEN = 128
# Training datasets hold more rows than a step budget consumes, so set-up
# is real generation work of tens of milliseconds, not timer jitter.
TRAIN_DATASET_ROWS = 1024
SETUPS_PER_GAP = 2
MIN_CALLS = 3


@dataclass(frozen=True)
class PrepareSpec:
    """A cold harness.prepare over a seeded synthetic text corpus, whose
    stages a training workload's traced run times."""

    vocab_size: int
    t: float
    dedup_min_len: int
    lines: int
    stems: int

    def config(self, seed: int) -> RunConfig:
        cfg = RunConfig()
        cfg.tokenizer.vocab_size = cfg.model.vocab_size = self.vocab_size
        cfg.pipeline.seq_len = cfg.model.seq_len = SEQ_LEN
        cfg.pipeline.t = self.t
        cfg.pipeline.dedup_min_len = self.dedup_min_len
        cfg.pipeline.sort = True
        cfg.pipeline.shuffle_seed = seed
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class TrainWorkload:
    """run_pretrain under a step budget on a packed synthetic token stream."""

    name: str
    preset: str
    num_layers: int
    hidden_dim: int
    num_heads: int
    ffn_dim: int
    vocab_size: int
    micro_batch: int
    final_batch: int
    steps: int
    prepare: PrepareSpec | None = None

    def config(self, seed: int) -> RunConfig:
        cfg = RunConfig()
        apply_overrides(cfg, PRESETS[self.preset])
        m = cfg.model
        m.num_layers, m.hidden_dim, m.num_heads = self.num_layers, self.hidden_dim, self.num_heads
        m.ffn_dim, m.vocab_size, m.seq_len = self.ffn_dim, self.vocab_size, SEQ_LEN
        cfg.tokenizer.vocab_size = self.vocab_size
        cfg.pipeline.seq_len = SEQ_LEN
        cfg.train.micro_batch = self.micro_batch
        cfg.train.final_batch = self.final_batch
        cfg.train.budget_steps = self.steps
        cfg.train.seed = seed
        # Two steps per curve point, so the run takes a mid-run snapshot.
        cfg.report.curve_interval = 2
        cfg.validate()
        return cfg


TRAIN_DESK = TrainWorkload(
    name="pretrain_crammed_desk",
    preset="crammed", num_layers=4, hidden_dim=256, num_heads=4, ffn_dim=1024,
    vocab_size=8192, micro_batch=16, final_batch=32, steps=4,
    prepare=PrepareSpec(vocab_size=8192, t=0.3, dedup_min_len=32, lines=6000, stems=600),
)
TRAIN_V32K = TrainWorkload(
    name="pretrain_original_v32k",
    preset="original_arch", num_layers=2, hidden_dim=512, num_heads=8, ffn_dim=2048,
    vocab_size=32768, micro_batch=8, final_batch=8, steps=3,
)
WORKLOADS = {w.name: w for w in (TRAIN_DESK, TRAIN_V32K)}


@dataclass
class Outcome:
    """What one benchmark run measured and whether its outputs held."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)


def file_digest(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


# -- training ------------------------------------------------------------

def train_rows(cfg: RunConfig) -> int:
    """Dataset rows: at least what one uninterrupted step-budget run
    consumes."""
    used = planned_samples(cfg.train.schedule(cfg.train.budget_steps), cfg.train.ramp())
    return max(used, TRAIN_DATASET_ROWS)


def setup_train(cfg: RunConfig, seed: int, work: str) -> PreparedData:
    """Pack a seeded token stream and write it where run_pretrain reads it."""
    m = cfg.model
    entries = token_entries(seed, m.vocab_size, train_rows(cfg) * m.seq_len)
    ds = pack(entries, m.seq_len, seed, m.vocab_size)
    out = PreparedData(key=f"tokens-{seed}", vocab_path="",
                       data_path=os.path.join(work, "data.bin"),
                       stats_path=os.path.join(work, "stats.txt"))
    save_dataset(out.data_path, ds)
    with open(out.stats_path, "w", encoding="utf-8") as fh:
        fh.write(corpus_stats(ds).to_text() + "\n")
    return out


def warm_up(cfg: RunConfig) -> None:
    """One micro-batch forward and backward at the workload's shape, so
    the first timed call does not also pay for the process's first large
    allocations; a real run pays that once over thousands of steps."""
    m = cfg.model
    model = build(m, seed=0)
    ids = np.random.default_rng(0).integers(0, m.vocab_size, (cfg.train.micro_batch, m.seq_len))
    with Tape() as tape:
        tape.backward(tsum(model.logits(ids)))


class SetUp:
    """Calls fn SETUPS_PER_GAP times whenever invoked and keeps each
    duration. It is invoked before the first timed call and after every
    call, so the samples spread over the run like the calls do."""

    def __init__(self, fn):
        self.fn = fn
        self.times: list[float] = []

    def __call__(self):
        for _ in range(SETUPS_PER_GAP):
            dt, out = timed(self.fn)
            self.times.append(dt)
        return out


def train_call_problems(cfg: RunConfig, res) -> list[str]:
    """Gates on one run_pretrain result: no abort, the full step budget,
    and a finite final loss below the step-0 loss."""
    problems = []
    if res.aborted:
        problems.append(f"run aborted: {res.abort_reason}")
    if res.steps != cfg.train.budget_steps:
        problems.append(f"ran {res.steps} of {cfg.train.budget_steps} steps")
    pts = res.curve.points
    if len(pts) < 2:
        problems.append("curve has no point after step 0")
    elif not (math.isfinite(pts[-1].loss) and pts[-1].loss < pts[0].loss):
        problems.append(f"final loss {pts[-1].loss} not finite and below step-0 {pts[0].loss}")
    return problems


def reload_problems(cfg: RunConfig, checkpoint_path: str) -> tuple[list[str], Model]:
    """Model.load must give back the checkpoint's config and every
    stored parameter bit for bit."""
    problems = []
    arrays, _ = load_checkpoint(checkpoint_path)
    model = Model.load(checkpoint_path)
    if model.config.to_strs() != cfg.model.to_strs():
        problems.append("checkpoint config differs from the run config")
    if set(arrays) != set(model.params) or any(
            arrays[k].tobytes() != p.data.tobytes() for k, p in model.params.items()):
        problems.append("Model.load does not reproduce the checkpoint bit for bit")
    return problems, model


def run_train(wl: TrainWorkload, seed: int, seconds: float, work: str) -> Outcome:
    cfg = wl.config(seed)
    setup = SetUp(lambda: setup_train(cfg, seed, work))
    data = setup()
    warm_up(cfg)
    out = Outcome()
    rates, walls = [], []
    reference = None
    start = clock()
    while len(walls) < MIN_CALLS or clock() - start + median(walls) <= seconds:
        wall, (art, res) = timed(run_pretrain, cfg, os.path.join(work, "run"), data=data)
        walls.append(wall)
        rates.append(res.tokens / wall)
        problems = train_call_problems(cfg, res)
        fingerprint = (res.curve.to_csv_text(),
                       file_digest(art.checkpoint_path, blob_path(art.checkpoint_path)))
        if reference is None:
            reference = fingerprint
            problems += reload_problems(cfg, art.checkpoint_path)[0]
        elif fingerprint != reference:
            problems.append("repeat run differs from the first (curve or checkpoint)")
        out.attempted += cfg.train.budget_steps
        if problems:
            out.failed += cfg.train.budget_steps
            out.problems.extend(problems)
        setup()
    pts = res.curve.points
    out.metrics = {"train_tok_s": median(rates), "final_loss": pts[-1].loss if pts else math.nan,
                   "peak_rss_mb": peak_rss_mib(), "setup_s": median(setup.times)}
    out.notes.update(step0_loss=pts[0].loss if pts else math.nan,
                     calls=len(walls), tokens_per_call=res.tokens,
                     call_s=median(walls), call_s_min=min(walls), call_s_max=max(walls))
    return out


# -- corpus preparation ----------------------------------------------------

def setup_prepare(spec: PrepareSpec, seed: int, work: str) -> str:
    path = os.path.join(work, "corpus.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(text_corpus(seed, spec.lines, spec.stems)) + "\n")
    return path


def prepare_call_problems(cfg: RunConfig, corpus: str, cache: str,
                          pd: PreparedData) -> list[str]:
    """Gates on one cold prepare: a vocabulary of exactly V entries, a
    dataset that validates and round-trips, and a cache hit on repeat."""
    problems = []
    vocab = Vocab.load(pd.vocab_path)
    if len(vocab) != cfg.tokenizer.vocab_size:
        problems.append(f"vocabulary has {len(vocab)} entries, not {cfg.tokenizer.vocab_size}")
    ds = load_dataset(pd.data_path)
    ds.validate()
    again = pd.data_path + ".roundtrip"
    save_dataset(again, ds)
    if file_digest(again) != file_digest(pd.data_path):
        problems.append("dataset does not round-trip through load_dataset")
    os.remove(again)
    paths = (pd.vocab_path, pd.data_path, pd.stats_path)
    stamps = [os.stat(p).st_mtime_ns for p in paths]
    hit = prepare(cfg, corpus, cache)
    if (hit.vocab_path, hit.data_path, hit.stats_path) != paths or \
            [os.stat(p).st_mtime_ns for p in paths] != stamps:
        problems.append("second prepare did not hit the cache")
    return problems
