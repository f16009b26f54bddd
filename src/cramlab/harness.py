"""Experiment orchestration: cached data preparation, single runs,
ablation tables, reports, and SVG loss charts.

A run directory is self-contained: config.txt (full rendered
configuration), curve.csv, checkpoint (+ .bin blob), dataset-stats.txt
and report.txt; only run_pretrain writes it. Prepared vocabularies and
datasets live in a shared work directory keyed by a content hash of the
tokenizer and pipeline settings and the corpus entries, not the corpus
path, so runs that differ only in model or training settings reuse the
exact same dataset file. Every file is committed whole through
`serde.committed`, so concurrent runs may share a work directory.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
from dataclasses import dataclass

import numpy as np

from .budget import (
    check_memory, load_devices, model_flops_estimate, total_exaflops, utilization,
)
from .config import (
    RunConfig, apply_overrides, config_diff, load_run_config,
    parse_run_config, render_run_config,
)
from .corpus import curate, load_dataset, save_dataset
from .errors import AnalysisError, ConfigurationError
from .model import Model, build
from .scaling import fit_power_law
from .serde import read_text, write_text_atomic
from .tokenizer import Vocab, WordPieceModel, train_wordpiece
from .trainer import (
    FinetuneMetrics, FinetuneProtocol, LossCurve, PretrainResult, finetune, load_task,
    pretrain,
)

CONFIG_NAME = "config.txt"
CURVE_NAME = "curve.csv"
CHECKPOINT_NAME = "checkpoint"
STATS_NAME = "dataset-stats.txt"
REPORT_NAME = "report.txt"


def read_entries(path: str) -> list[str]:
    """Raw corpus entries: every non-blank line of the file, or of
    each *.txt file (sorted by name) when path is a directory."""
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".txt"))
        if not names:
            raise ConfigurationError(f"no .txt files under {path}")
        files = [os.path.join(path, n) for n in names]
    elif os.path.isfile(path):
        files = [path]
    else:
        raise ConfigurationError(f"corpus input not found: {path}")
    entries: list[str] = []
    for name in files:
        entries.extend(line for line in (ln.strip() for ln in read_text(name).split("\n")) if line)
    if not entries:
        raise ConfigurationError(f"corpus input is empty: {path}")
    return entries


def data_key(cfg: RunConfig, entries: list[str]) -> str:
    """Content hash over everything that can change the dataset bytes:
    the tokenizer and pipeline settings but tokenizer.input, and the
    corpus entries."""
    h = hashlib.sha256()
    for key, value in cfg.rendered().items():
        if key.startswith(("tokenizer.", "pipeline.")) and key != "tokenizer.input":
            h.update(f"{key} = {value}\n".encode())
    for entry in entries:
        h.update(entry.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


@dataclass
class PreparedData:
    key: str
    vocab_path: str
    data_path: str
    stats_path: str


def prepare(cfg: RunConfig, input_path: str, workdir: str) -> PreparedData:
    """Train the tokenizer and curate the corpus, or reuse cached
    artifacts when an identical preparation already ran."""
    os.makedirs(workdir, exist_ok=True)
    entries = read_entries(input_path)
    key = data_key(cfg, entries)
    out = PreparedData(
        key=key,
        vocab_path=os.path.join(workdir, f"vocab-{key}.txt"),
        data_path=os.path.join(workdir, f"data-{key}.bin"),
        stats_path=os.path.join(workdir, f"stats-{key}.txt"),
    )
    if all(os.path.exists(p) for p in (out.vocab_path, out.data_path, out.stats_path)):
        return out

    wp = train_wordpiece(
        entries,
        vocab_size=cfg.tokenizer.vocab_size,
        max_chars_per_word=cfg.tokenizer.max_chars_per_word,
    )
    ds, report = curate(entries, wp, cfg.pipeline)

    wp.vocab.save(out.vocab_path)
    save_dataset(out.data_path, ds)
    write_text_atomic(out.stats_path, report.to_text() + "\n")
    return out


@dataclass
class RunArtifacts:
    run_dir: str
    config_path: str
    curve_path: str
    checkpoint_path: str
    stats_path: str
    report_path: str


def _artifacts(run_dir: str) -> RunArtifacts:
    return RunArtifacts(
        run_dir=run_dir,
        config_path=os.path.join(run_dir, CONFIG_NAME),
        curve_path=os.path.join(run_dir, CURVE_NAME),
        checkpoint_path=os.path.join(run_dir, CHECKPOINT_NAME),
        stats_path=os.path.join(run_dir, STATS_NAME),
        report_path=os.path.join(run_dir, REPORT_NAME),
    )


def check_run(cfg: RunConfig) -> None:
    """A run's pre-flight: the config's own checks, then its budget and
    its memory estimate. A missing, doubled or negative budget, or a
    micro-batch that cannot fit, fails before any file is written."""
    cfg.validate()
    cfg.train.schedule(cfg.train.horizon())
    check_memory(cfg.model, cfg.train.micro_batch, cfg.train.mask_rate)


def run_pretrain(
    cfg: RunConfig,
    run_dir: str,
    *,
    data: PreparedData | None = None,
    workdir: str | None = None,
) -> tuple[RunArtifacts, PretrainResult]:
    """Prepare (or reuse) data from tokenizer.input, pretrain, and write
    the run directory."""
    check_run(cfg)
    if data is None:
        if not cfg.tokenizer.input:
            raise ConfigurationError("no corpus input given (tokenizer.input)")
        data = prepare(cfg, cfg.tokenizer.input, workdir or os.path.join(run_dir, "cache"))
    ds = load_dataset(data.data_path)
    if ds.vocab_size != cfg.model.vocab_size:
        raise ConfigurationError(
            f"dataset vocab size {ds.vocab_size} does not match "
            f"model.vocab_size {cfg.model.vocab_size}"
        )
    if ds.seq_len != cfg.model.seq_len:
        raise ConfigurationError(
            f"dataset seq_len {ds.seq_len} does not match "
            f"model.seq_len {cfg.model.seq_len}"
        )

    os.makedirs(run_dir, exist_ok=True)
    art = _artifacts(run_dir)
    write_text_atomic(art.config_path, render_run_config(cfg))
    write_text_atomic(art.stats_path, read_text(data.stats_path))

    model = build(cfg.model, seed=cfg.train.seed)
    result = pretrain(model, ds, cfg.train, curve_interval=cfg.report.curve_interval)
    model.save(art.checkpoint_path)
    write_text_atomic(art.curve_path, result.curve.to_csv_text())
    write_text_atomic(art.report_path, emit_report(run_dir))
    return art, result


@dataclass
class AblationRow:
    name: str
    final_loss: float | None
    steps: int
    tokens: int
    status: str
    task_metric: float | None = None


def run_ablation(
    base: RunConfig,
    rows: list[tuple[str, dict[str, str]]],
    input_path: str,
    workdir: str,
    *,
    task_path: str | None = None,
    task_seeds: int = 1,
) -> tuple[list[AblationRow], str]:
    """Run one pretraining per row, all sharing the base seed and
    budget. Rows that abort are marked failed; the rest still run.

    Every row passes check_run, and the run directories and the seed
    count are checked, up front, so a typo, a row that cannot fit in
    memory or a repeated name cannot waste the earlier runs.
    """
    if task_path is not None:
        _require_seeds(task_seeds)
    configs: dict[str, tuple[str, RunConfig]] = {}
    for name, overrides in rows:
        run_dir = os.path.join(workdir, f"run-{_slug(name)}")
        if run_dir in configs:
            raise ConfigurationError(f"ablation rows {configs[run_dir][0]!r} and "
                                     f"{name!r} would share the run directory {run_dir}")
        cfg = parse_run_config(render_run_config(base))
        apply_overrides(cfg, overrides)
        cfg.tokenizer.input = input_path
        check_run(cfg)
        configs[run_dir] = (name, cfg)

    results: list[AblationRow] = []
    for run_dir, (name, cfg) in configs.items():
        data = prepare(cfg, input_path, workdir)
        art, res = run_pretrain(cfg, run_dir, data=data)
        row = AblationRow(
            name=name,
            final_loss=res.curve.points[-1].loss if len(res.curve) else None,
            steps=res.steps,
            tokens=res.tokens,
            status="failed" if res.aborted else "ok",
        )
        if task_path is not None and not res.aborted:
            runs = finetune_seeds(
                art.checkpoint_path, data.vocab_path,
                task_path, FinetuneProtocol(), task_seeds,
                max_chars_per_word=cfg.tokenizer.max_chars_per_word)
            row.task_metric = float(statistics.median(m.accuracy for m in runs))
        results.append(row)
    return results, render_ablation_table(results, with_task=task_path is not None)


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in name.lower()).strip("-")


def _require_seeds(seeds: int) -> None:
    if seeds < 1:
        raise ConfigurationError(f"need at least one finetune seed, got {seeds}")


def finetune_seeds(
    checkpoint_path: str,
    vocab_path: str,
    task_path: str,
    protocol: FinetuneProtocol,
    seeds: int,
    *,
    max_chars_per_word: int,
    eval_path: str | None = None,
) -> list[FinetuneMetrics]:
    """Finetune a fresh load of the checkpoint once for each seed in
    range(seeds); eval_path defaults to the training task."""
    _require_seeds(seeds)
    examples = load_task(task_path)
    eval_examples = load_task(eval_path) if eval_path else None
    wp = WordPieceModel(Vocab.load(vocab_path), max_chars_per_word)
    return [finetune(Model.load(checkpoint_path), wp, examples, protocol, seed=seed,
                     eval_examples=eval_examples)
            for seed in range(seeds)]


def render_ablation_table(rows: list[AblationRow], with_task: bool = False) -> str:
    header = ["name", "final_loss", "steps", "tokens", "status"]
    if with_task:
        header.append("task_metric")
    table = [header]
    for r in rows:
        line = [
            r.name,
            "n/a" if r.final_loss is None else f"{r.final_loss:.4f}",
            str(r.steps),
            str(r.tokens),
            r.status,
        ]
        if with_task:
            line.append("n/a" if r.task_metric is None else f"{r.task_metric:.4f}")
        table.append(line)
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in table]
    return "\n".join(lines) + "\n"


def _require_artifacts(run_dir: str, names: list[str]) -> None:
    missing = [n for n in names if not os.path.exists(os.path.join(run_dir, n))]
    if missing:
        raise ConfigurationError(
            f"run directory {run_dir} is missing: " + ", ".join(missing)
        )


def emit_report(run_dir: str, device_name: str | None = None,
                baseline_dir: str | None = None) -> str:
    """Human-readable summary of a finished run.

    Sections: [run] configuration highlights, [dataset] curation
    stats, [training] loss trajectory, [budget] FLOP accounting, and
    [scaling] a power-law fit of the curve. With a baseline run a
    [diff] section lists every configuration key that differs.
    """
    _require_artifacts(run_dir, [CONFIG_NAME, CURVE_NAME, STATS_NAME])
    cfg = load_run_config(os.path.join(run_dir, CONFIG_NAME))
    curve = LossCurve.from_csv(os.path.join(run_dir, CURVE_NAME))
    stats_text = read_text(os.path.join(run_dir, STATS_NAME)).rstrip("\n")

    device_name = device_name or cfg.report.device
    devices = load_devices()
    device = devices.get(device_name)

    rendered = cfg.rendered()
    lines = ["[run]"]
    for key in ("model.num_layers", "model.hidden_dim", "model.num_heads",
                "model.ffn_dim", "model.vocab_size", "model.seq_len",
                "model.norm_placement", "model.ffn_kind",
                "model.embedding_kind", "train.schedule_kind",
                "train.peak_lr", "train.final_batch", "train.seed"):
        lines.append(f"{key} = {rendered[key]}")

    lines.append("")
    lines.append("[dataset]")
    lines.append(stats_text)

    lines.append("")
    lines.append("[training]")
    if len(curve):
        first, last = curve.points[0], curve.points[-1]
        lines.append(f"curve points = {len(curve)}")
        lines.append(f"steps = {last.step}")
        lines.append(f"tokens = {last.tokens}")
        lines.append(f"first loss = {first.loss:.6f}")
        lines.append(f"final loss = {last.loss:.6f}")
        if last.seconds > 0:
            lines.append(f"elapsed seconds = {last.seconds:.1f}")
            lines.append(f"tokens per second = {last.tokens / last.seconds:.1f}")
        else:
            lines.append("elapsed seconds = n/a (step budget)")
            lines.append("tokens per second = n/a (step budget)")
    else:
        lines.append("curve points = 0")

    lines.append("")
    lines.append("[budget]")
    flops = model_flops_estimate(cfg.model, int(curve.points[-1].tokens)) if len(curve) else 0.0
    lines.append(f"estimated flops = {flops:.4e}")
    lines.append(f"estimated exaflops = {flops / 1e18:.6f}")
    if device is not None:
        lines.append(f"device = {device.name} ({device.peak_tflops} TFLOP/s peak)")
        if len(curve) and curve.points[-1].seconds > 0:
            seconds = curve.points[-1].seconds
            lines.append("device budget exaflops = "
                         f"{total_exaflops(device, seconds / 3600.0):.6f}")
            lines.append(f"utilization = {utilization(flops, seconds, device):.4f}")
        else:
            lines.append("device budget exaflops = n/a (step budget)")
            lines.append("utilization = n/a (step budget)")
    else:
        lines.append(f"device = {device_name} (unknown, no peak rate)")

    lines.append("")
    lines.append("[scaling]")
    try:
        fit = fit_power_law(curve)
        lines.append(f"power law: loss = {fit.c:.4f} + {fit.a:.4f} * tokens^-{fit.b:.4f}")
        lines.append(f"fit residual (log RMS) = {fit.residual:.6f}")
    except AnalysisError as exc:
        lines.append(f"power law: not fitted ({exc})")

    if baseline_dir is not None:
        _require_artifacts(baseline_dir, [CONFIG_NAME])
        other = load_run_config(os.path.join(baseline_dir, CONFIG_NAME))
        lines.append("")
        lines.append("[diff]")
        diff = config_diff(other, cfg)
        if not diff:
            lines.append("no configuration differences")
        for key, (a, b) in sorted(diff.items()):
            lines.append(f"{key}: {a} -> {b}")

    return "\n".join(lines) + "\n"


def write_svg(path: str, series: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
    """Minimal self-contained loss-vs-tokens chart, log-scaled x axis."""
    width, height, pad = 720, 480, 56
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
              "#8c564b", "#17becf", "#7f7f7f"]
    xs_all = np.concatenate([np.asarray(x, float) for x, _ in series.values()])
    ys_all = np.concatenate([np.asarray(y, float) for _, y in series.values()])
    if xs_all.size == 0 or np.any(xs_all <= 0):
        raise ConfigurationError("chart needs positive x values")
    lo_x, hi_x = math.log10(xs_all.min()), math.log10(xs_all.max())
    lo_y, hi_y = float(ys_all.min()), float(ys_all.max())
    if hi_x - lo_x < 1e-12:
        hi_x = lo_x + 1.0
    if hi_y - lo_y < 1e-12:
        hi_y = lo_y + 1.0

    def px(x: float) -> float:
        return pad + (math.log10(x) - lo_x) / (hi_x - lo_x) * (width - 2 * pad)

    def py(y: float) -> float:
        return height - pad - (y - lo_y) / (hi_y - lo_y) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        'font-size="13">tokens (log scale)</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 16 {height / 2:.1f})">'
        'loss</text>',
    ]
    for tick in range(math.ceil(lo_x), math.floor(hi_x) + 1):
        x = px(10.0 ** tick)
        parts.append(f'<line x1="{x:.1f}" y1="{height - pad}" x2="{x:.1f}" '
                     f'y2="{height - pad + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{height - pad + 18}" '
                     f'text-anchor="middle" font-size="11">1e{tick}</text>')
    for frac in (0.0, 0.5, 1.0):
        y_val = lo_y + frac * (hi_y - lo_y)
        y = py(y_val)
        parts.append(f'<line x1="{pad - 5}" y1="{y:.1f}" x2="{pad}" '
                     f'y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{pad - 8}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-size="11">{y_val:.3f}</text>')
    for i, (name, (xs, ys)) in enumerate(series.items()):
        color = colors[i % len(colors)]
        pts = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}"
                       for x, y in zip(np.asarray(xs), np.asarray(ys)))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - pad - 4}" y="{pad + 16 * (i + 1)}" '
                     f'text-anchor="end" font-size="12" fill="{color}">'
                     f'{name}</text>')
    parts.append("</svg>")
    write_text_atomic(path, "\n".join(parts) + "\n")
