"""The traced run of each workload: per-layer timings, counts and the
replica checks that prove those timings cover the same arithmetic as
the untraced run.

Spans are taken from here, around calls into cramlab's public
functions; nothing inside the program is instrumented.
"""

from __future__ import annotations

import math
import os
import shutil
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from cramlab.budget import model_flops_estimate
from cramlab.checkpoint import blob_path
from cramlab.config import RunConfig
from cramlab.corpus import (
    RawEntry, TokenizedEntry, compression_filter, curate,
    dedup_exact, load_dataset, pack, save_dataset, sort_by_prevalence,
)
from cramlab.harness import prepare, read_entries, run_pretrain
from cramlab.model import Model, ModelConfig, attention, build, ffn, param_count
from cramlab.tensor import (
    Tape, Tensor, cross_entropy_from_logits, gather_rows, gelu, layer_norm,
    matmul, matmul_t, set_finite_checks, softmax, tsum,
)
from cramlab.tokenizer import Vocab, WordPieceModel, normalize, pre_tokenize, train_wordpiece
from cramlab.trainer import AdamState, accumulation_at, adam_step, clip_gradients, lr_at, mask_batch

from timing import clock, median, p90, repeat, rss_mib, timed
from workloads import (
    Outcome, PrepareSpec, TrainWorkload, prepare_call_problems, reload_problems,
    setup_prepare, setup_train, train_call_problems, warm_up,
)

F32 = np.float32


def matmul_flops_per_token(m: ModelConfig, micro_batch: int, decoded_rows: float) -> float:
    """Matmul FLOPs of one training micro-batch per token, counted from
    the shapes the model multiplies: forward 2*M*K*N per product, and a
    backward of twice that since every operand of every product needs a
    gradient. decoded_rows is the mean count of rows the head decodes
    (masked positions under sparse prediction, every position else)."""
    d, f, S, V = m.hidden_dim, m.ffn_dim, m.seq_len, m.vocab_size
    n = micro_batch * S
    f_out = f // 2 if m.ffn_kind == "glu_gelu" else f
    per_layer = (2 * n * d * 4 * d      # q, k, v and output projections
                 + 2 * 2 * n * S * d    # scores and context
                 + 2 * n * d * f        # FFN in
                 + 2 * n * f_out * d)   # FFN out
    head = 2 * decoded_rows * d * V + (2 * decoded_rows * d * d if m.nonlinear_head else 0)
    return 3.0 * (m.num_layers * per_layer + head) / n


@dataclass
class Replay:
    """pretrain()'s loop driven from outside, with each phase timed."""

    model: Model
    step0_loss: float
    final_loss: float
    tokens: int
    wall_s: float
    decoded_rows: list[int] = field(default_factory=list)
    first_batch: tuple | None = None
    spans: dict[str, list[float]] = field(default_factory=dict)
    rss: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, seconds: float) -> None:
        self.spans.setdefault(name, []).append(seconds)


def replay_pretrain(cfg: RunConfig, data_path: str, checkpoint_path: str) -> Replay:
    """Replays trainer.pretrain for a step budget with the same seeds, the
    same data order and the same arithmetic, so its losses and final
    parameters must equal the untraced run's bit for bit."""
    t_start = clock()
    tr = cfg.train
    steps = tr.budget_steps
    masking, ramp, optimizer = tr.masking(), tr.ramp(), tr.optimizer()
    sched = tr.schedule(steps)
    seqs = load_dataset(data_path).sequences
    vocab_size = cfg.model.vocab_size
    model = build(cfg.model, seed=tr.seed)
    rng = np.random.default_rng(tr.seed)
    eval_rng = np.random.default_rng(tr.seed + 1)

    inputs, positions, labels = mask_batch(seqs[:ramp.micro_batch], masking, eval_rng, vocab_size)
    step0 = float(cross_entropy_from_logits(
        model.logits(inputs, masked_positions=positions), labels).item())
    rep = Replay(model=model, step0_loss=step0, final_loss=math.nan, tokens=0, wall_s=0.0)

    state = AdamState()
    cursor = 0
    err_state = np.seterr(over="ignore", invalid="ignore", divide="ignore")
    try:
        for step in range(steps):
            t_step = clock()
            acc = accumulation_at(step, ramp, steps)
            rep.add("zero_grads", timed(model.zero_grads)[0])
            step_loss = 0.0
            for _ in range(acc):
                rows = seqs[cursor:cursor + ramp.micro_batch]
                cursor += ramp.micro_batch
                dt, (inputs, positions, labels) = timed(mask_batch, rows, masking, rng, vocab_size)
                rep.add("mask_batch", dt)
                if rep.first_batch is None:
                    rep.first_batch = (inputs, positions, labels)
                rep.decoded_rows.append(positions.size if cfg.model.sparse_prediction
                                        else rows.size)
                with Tape() as tape:
                    dt, logits = timed(model.logits, inputs, masked_positions=positions)
                    rep.add("forward", dt)
                    t0 = clock()
                    loss = cross_entropy_from_logits(logits, labels)
                    scaled = loss * (1.0 / acc)
                    rep.add("loss", clock() - t0)
                    rep.rss["forward"] = max(rep.rss.get("forward", 0.0), rss_mib())
                    rep.add("backward", timed(tape.backward, scaled)[0])
                rep.rss["backward"] = max(rep.rss.get("backward", 0.0), rss_mib())
                step_loss += loss.item() / acc
                rep.tokens += rows.size
            rep.add("clip", timed(clip_gradients, (p.grad for p in model.params.values()),
                                  optimizer.clip_norm)[0])
            lr = lr_at(min(step, sched.total_steps), sched)
            rep.add("adam", timed(adam_step, model.params, state, lr, optimizer,
                                  Model.decay_exempt)[0])
            rep.rss["step"] = max(rep.rss.get("step", 0.0), rss_mib())
            rep.add("step", clock() - t_step)
            rep.final_loss = step_loss
    finally:
        np.seterr(**err_state)
    model.save(checkpoint_path)
    rep.wall_s = clock() - t_start
    return rep


def fwd_bwd(op, leaves: list[Tensor], budget_s: float) -> tuple[float, float]:
    """Median forward and backward seconds of op() under a Tape. A
    non-scalar output is seeded through tsum, whose backward is one
    broadcast copy of the output."""
    fwd: list[float] = []
    bwd: list[float] = []
    end = clock() + budget_s
    while len(fwd) < 3 or (len(fwd) < 40 and clock() + median(fwd) + median(bwd) <= end):
        for t in leaves:
            t.zero_grad()
        with Tape() as tape:
            dt, out = timed(op)
            fwd.append(dt)
            loss = out if out.data.size == 1 else tsum(out)
            bwd.append(timed(tape.backward, loss)[0])
    for t in leaves:
        t.zero_grad()
    return median(fwd), median(bwd)


class Shares:
    """Splits the time left before a deadline evenly over the probes
    still to run."""

    def __init__(self, deadline: float, probes: int):
        self.deadline, self.left = deadline, probes

    def __call__(self) -> float:
        budget = max(0.0, self.deadline - clock()) / max(1, self.left)
        self.left -= 1
        return budget


def leaf(rng: np.random.Generator, *shape: int) -> Tensor:
    return Tensor(rng.standard_normal(shape).astype(F32), requires_grad=True)


def sgemm_gflop_s(n: int, k: int, m: int, budget_s: float) -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, k)).astype(F32)
    b = rng.standard_normal((k, m)).astype(F32)
    return 2.0 * n * k * m / median(repeat(lambda: a @ b, budget_s)) / 1e9


def run_train_traced(wl: TrainWorkload, seed: int, seconds: float, work: str) -> Outcome:
    """Per-layer metrics of a training workload. When the workload names
    a corpus preparation, the last 40% of the time times its stages."""
    end = clock() + seconds
    deadline = end - (0.4 * seconds if wl.prepare else 0.0)
    cfg = wl.config(seed)
    m = cfg.model
    micro = cfg.train.micro_batch
    out = Outcome(attempted=2 * cfg.train.budget_steps)
    met = out.metrics

    data = setup_train(cfg, seed, work)
    warm_up(cfg)
    untraced_s, (art, res) = timed(run_pretrain, cfg, os.path.join(work, "run"), data=data)
    rep = replay_pretrain(cfg, data.data_path, os.path.join(work, "replay-ckpt"))
    problems, reloaded = reload_problems(cfg, art.checkpoint_path)
    problems += train_call_problems(cfg, res)
    replica = []
    if len(res.curve) < 2 or rep.step0_loss != res.curve.points[0].loss:
        replica.append("replayed step-0 loss differs from the untraced run")
    if len(res.curve) < 2 or rep.final_loss != res.curve.points[-1].loss:
        replica.append(f"replayed final loss {rep.final_loss!r} differs from the untraced run")
    if any(p.data.tobytes() != reloaded.params[k].data.tobytes()
           for k, p in rep.model.params.items()):
        replica.append("replayed parameters differ from the untraced checkpoint")
    out.problems = problems + replica
    out.failed = cfg.train.budget_steps * ((1 if problems else 0) + (1 if replica else 0))
    out.notes.update(final_loss=rep.final_loss, step0_loss=rep.step0_loss,
                     untraced_call_s=untraced_s, replay_s=rep.wall_s,
                     traced_steps=len(rep.spans["step"]))

    sp = rep.spans
    for name in ("zero_grads", "mask_batch", "forward", "loss", "backward", "clip", "adam"):
        met[f"trainer.{name}_s"] = median(sp[name])
    met["trainer.step_s"] = median(sp["step"])
    met["trainer.step_s_p90"] = p90(sp["step"])
    rows = float(np.mean(rep.decoded_rows))
    fpt = matmul_flops_per_token(m, micro, rows)
    met["trainer.achieved_gflop_s"] = fpt * rep.tokens / sum(sp["step"]) / 1e9
    for phase in ("forward", "backward", "step"):
        met[f"trainer.rss_after_{phase}_mb"] = rep.rss[phase]
    met["model.param_mb"] = param_count(m) * 4 / 2.0 ** 20
    met["model.matmul_flops_per_token"] = fpt
    met["model.flops_6nd_ratio"] = model_flops_estimate(m, rep.tokens) / (fpt * rep.tokens)
    met["trace.overhead_frac"] = rep.wall_s / untraced_s - 1.0

    model = rep.model
    inputs, positions, labels = rep.first_batch
    n, d, S, V = micro * m.seq_len, m.hidden_dim, m.seq_len, m.vocab_size
    gelu_width = m.ffn_dim // 2 if m.ffn_kind == "glu_gelu" else m.ffn_dim
    head_rows = int(round(rows))
    rng = np.random.default_rng(seed)
    x = leaf(rng, micro, S, d)
    a, w_in = leaf(rng, n, d), leaf(rng, d, m.ffn_dim)
    h, table = leaf(rng, head_rows, d), leaf(rng, V, d)
    g_in = leaf(rng, n, gelu_width)
    gain, bias = leaf(rng, d), leaf(rng, d)
    scores = leaf(rng, micro, m.num_heads, S, S)
    logits = leaf(rng, positions.size, V)
    ids = inputs.ravel()
    params = list(model.params.values())

    share = Shares(deadline, probes=14)

    def encode_under_tape():
        with Tape():
            model.encode(inputs)
    met["model.encode_fwd_s"] = median(repeat(encode_under_tape, share()))
    met["model.attention_fwd_s"], met["model.attention_bwd_s"] = fwd_bwd(
        lambda: attention(x, model.params, m, 0), [x, *params], share())
    met["model.ffn_fwd_s"], met["model.ffn_bwd_s"] = fwd_bwd(
        lambda: ffn(x, model.params, m, 0), [x, *params], share())
    met["tensor.matmul_fwd_s"], met["tensor.matmul_bwd_s"] = fwd_bwd(
        lambda: matmul(a, w_in), [a, w_in], share())
    met["tensor.matmul_t_fwd_s"], met["tensor.matmul_t_bwd_s"] = fwd_bwd(
        lambda: matmul_t(h, table), [h, table], share())
    met["tensor.gelu_fwd_s"], met["tensor.gelu_bwd_s"] = fwd_bwd(
        lambda: gelu(g_in), [g_in], share())
    met["tensor.layer_norm_fwd_s"], met["tensor.layer_norm_bwd_s"] = fwd_bwd(
        lambda: layer_norm(x, gain, bias, m.layer_norm_eps), [x, gain, bias], share())
    met["tensor.softmax_fwd_s"], met["tensor.softmax_bwd_s"] = fwd_bwd(
        lambda: softmax(scores), [scores], share())
    met["tensor.gather_rows_bwd_s"] = fwd_bwd(lambda: gather_rows(table, ids), [table], share())[1]
    met["tensor.cross_entropy_fwd_s"], met["tensor.cross_entropy_bwd_s"] = fwd_bwd(
        lambda: cross_entropy_from_logits(logits, labels), [logits], share())

    on, off = [], []
    end = clock() + share()
    previous = set_finite_checks(True)
    try:
        while len(on) < 3 or (len(on) < 40 and clock() + median(on) + median(off) <= end):
            set_finite_checks(True)
            on.append(timed(model.logits, inputs, masked_positions=positions)[0])
            set_finite_checks(False)
            off.append(timed(model.logits, inputs, masked_positions=positions)[0])
    finally:
        set_finite_checks(previous)
    met["tensor.guard_frac"] = 1.0 - median(off) / median(on)

    ckpt = os.path.join(work, "probe-ckpt")
    met["checkpoint.save_s"] = median(repeat(lambda: model.save(ckpt), share()))
    met["checkpoint.load_s"] = median(repeat(lambda: Model.load(ckpt), share()))
    met["checkpoint.bytes"] = float(os.path.getsize(ckpt) + os.path.getsize(blob_path(ckpt)))
    met["machine.sgemm_gflop_s"] = sgemm_gflop_s(n, d, m.ffn_dim, share())
    if wl.prepare:
        prepare_layers(wl.prepare, seed, end, work, out)
    return out


@dataclass
class StagedPrepare:
    """harness.prepare taken apart into its stages, each timed."""

    vocab: Vocab
    dataset_bytes: bytes
    spans: dict[str, float]
    raw_chars: int
    normalized_chars: int


def staged_prepare(cfg: RunConfig, corpus: str, work: str) -> StagedPrepare:
    """The stages prepare() and curate() run, called one by one in the
    same order on the same inputs, so the dataset must come out equal."""
    pc = cfg.pipeline
    sp: dict[str, float] = {}
    entries = read_entries(corpus)
    sp["train_wordpiece"], wp_trained = timed(
        train_wordpiece, entries, cfg.tokenizer.vocab_size, cfg.tokenizer.max_chars_per_word)
    wp = WordPieceModel(wp_trained.vocab, cfg.tokenizer.max_chars_per_word)
    sp["normalize"], norms = timed(lambda: [normalize(t) for t in entries])
    kept = [(i, t, nt) for i, (t, nt) in enumerate(zip(entries, norms)) if nt]
    sp["encode"], ids = timed(lambda: [wp.encode(nt) for _, _, nt in kept])
    tokenized = [TokenizedEntry.from_ids(e, i) for (i, _, _), e in zip(kept, ids)]
    if pc.t is not None:
        raws = [RawEntry(text=t, char_count=len(nt)) for _, t, nt in kept]
        tokenized = [e for e, r in zip(tokenized, raws) if compression_filter(e, r, pc.t)]
    if pc.dedup_min_len is not None:
        sp["dedup_exact"], tokenized = timed(dedup_exact, tokenized, pc.dedup_min_len)
    sp["pack"], ds = timed(pack, tokenized, pc.seq_len, pc.shuffle_seed, wp.vocab_size)
    if pc.sort:
        sp["sort_by_prevalence"], ds = timed(sort_by_prevalence, ds)
    path = os.path.join(work, "staged.bin")
    sp["save_dataset"] = timed(save_dataset, path, ds)[0]
    with open(path, "rb") as fh:
        body = fh.read()
    sp["load_dataset"] = timed(load_dataset, path)[0]
    return StagedPrepare(vocab=wp.vocab, dataset_bytes=body, spans=sp,
                         raw_chars=sum(map(len, entries)),
                         normalized_chars=sum(len(nt) for _, _, nt in kept))


def prepare_layers(spec: PrepareSpec, seed: int, deadline: float, work: str,
                   out: Outcome) -> None:
    """Times harness.prepare stage by stage and adds the tokenizer.*,
    corpus.* and harness.* metrics to out. Each cold prepare call, and
    each staged replay, counts as one operation."""
    cfg = spec.config(seed)
    corpus = setup_prepare(spec, seed, work)
    met = out.metrics

    cache = os.path.join(work, "cache")
    cold_s, pd = timed(prepare, cfg, corpus, cache)
    gates = prepare_call_problems(cfg, corpus, cache, pd)
    out.attempted += 1
    if gates:
        out.failed += 1
        out.problems += gates
    met["harness.prepare_cached_s"] = median(repeat(lambda: prepare(cfg, corpus, cache), 0.5))
    with open(pd.data_path, "rb") as fh:
        cold_bytes = fh.read()
    cold_ds = load_dataset(pd.data_path)
    cold_vocab = Vocab.load(pd.vocab_path)
    entries = read_entries(corpus)

    runs: list[StagedPrepare] = []
    curate_s: list[float] = []
    while not runs or (len(runs) < 5 and clock() + cold_s * 2.5 <= deadline):
        st = staged_prepare(cfg, corpus, work)
        dt, (ds, report) = timed(curate, entries, WordPieceModel(
            st.vocab, cfg.tokenizer.max_chars_per_word), cfg.pipeline)
        curate_s.append(dt)
        replica = []
        if st.vocab.tokens != cold_vocab.tokens:
            replica.append("staged vocabulary differs from the cold prepare")
        if st.dataset_bytes != cold_bytes:
            replica.append("staged dataset bytes differ from the cold prepare")
        if not np.array_equal(ds.sequences, cold_ds.sequences):
            replica.append("curate() dataset differs from the cold prepare")
        out.attempted += 1
        if replica:
            out.failed += 1
            out.problems += replica
        runs.append(st)

    span = lambda name: median([r.spans[name] for r in runs])  # noqa: E731
    met["tokenizer.train_wordpiece_s"] = span("train_wordpiece")
    met["tokenizer.encode_chars_s"] = runs[0].normalized_chars / span("encode")
    met["tokenizer.normalize_chars_s"] = runs[0].raw_chars / span("normalize")
    words = Counter(w for nt in map(normalize, entries) for w in pre_tokenize(nt))
    met["tokenizer.distinct_word_frac"] = len(words) / sum(words.values())
    met["corpus.curate_s"] = median(curate_s)
    for name in ("dedup_exact", "pack", "sort_by_prevalence", "save_dataset", "load_dataset"):
        met[f"corpus.{name}_s"] = span(name)
    met["corpus.filter_drop_frac"] = report.dropped_filter / report.entries_in
    met["corpus.dedup_removed_frac"] = 1.0 - report.tokens_after_dedup / report.tokens_before_dedup
    out.notes.update(cold_prepare_s=cold_s, prepare_chars_s=runs[0].raw_chars / cold_s,
                     staged_prepare_runs=len(runs), prepared_tokens=cold_ds.token_count)
    shutil.rmtree(cache)
