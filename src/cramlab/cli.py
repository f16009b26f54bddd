"""Command-line entry point.

Verbs: tokenize-train, prepare, pretrain, finetune, ablate,
fit-scaling, report. Exit codes: 0 success, 1 configuration error,
2 runtime failure, 3 analysis error.

Settings reach a verb one way. tokenize-train, prepare, pretrain and
ablate read a run configuration (config.py): `--config FILE`, or the
defaults, with each repeatable `--set section.key=value` applied on
top in order. No flag re-declares a config field; the others name
paths or, for ablate, the rows and the task:
- tokenize-train reads tokenizer.vocab_size and
  tokenizer.max_chars_per_word;
- prepare reads pipeline.* and encodes with
  tokenizer.max_chars_per_word;
- pretrain reads every section; `--input` fills tokenizer.input, and a
  budget or seed is set with `--set train.budget_steps=N` (the two
  budget keys are exclusive, so one from a config file may need
  `--set train.budget_hours=none`) or `--set train.seed=N`;
- ablate layers each preset on the configuration, and `--task` scores
  each row with that row's tokenizer.max_chars_per_word.
finetune has no run configuration: its flags default to
FinetuneProtocol, and it encodes with the run's
tokenizer.max_chars_per_word, read from config.txt beside the
checkpoint (the default when there is none). report reads the finished
run's config.txt; `--device` overrides its stored report.device.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys

from .config import PRESETS, RunConfig, load_run_config, split_assignment
from .corpus import curate, save_dataset
from .errors import AnalysisError, ConfigurationError, ContractError
from .harness import (
    CONFIG_NAME, CURVE_NAME, emit_report, finetune_seeds, read_entries, run_ablation,
    run_pretrain, write_svg,
)
from .scaling import estimate_shift, fit_power_law
from .serde import write_text_atomic
from .tokenizer import Vocab, WordPieceModel, train_wordpiece
from .trainer import FinetuneProtocol, LossCurve


def _chart_series(curve: LossCurve, path: str):
    # the step-0 point sits at zero tokens, which a log axis cannot show
    tokens, losses = curve.tokens(), curve.losses()
    keep = tokens > 0
    if not keep.any():
        raise ConfigurationError(
            f"{path}: curve has no point after step 0 to chart")
    return tokens[keep], losses[keep]


def _load_config(args) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    for item in args.set:
        cfg.set(*split_assignment(item, "--set"))
    return cfg


def cmd_tokenize_train(args) -> int:
    tok = _load_config(args).tokenizer
    wp = train_wordpiece(read_entries(args.input), vocab_size=tok.vocab_size,
                         max_chars_per_word=tok.max_chars_per_word)
    wp.vocab.save(args.out)
    print(f"trained vocabulary of {len(wp.vocab)} tokens -> {args.out}")
    return 0


def cmd_prepare(args) -> int:
    cfg = _load_config(args)
    entries = read_entries(args.input)
    wp = WordPieceModel(Vocab.load(args.vocab), cfg.tokenizer.max_chars_per_word)
    ds, report = curate(entries, wp, cfg.pipeline)
    save_dataset(args.out, ds)
    text = report.to_text() + "\n"
    if args.report:
        write_text_atomic(args.report, text)
    print(text, end="")
    print(f"wrote {ds.sequence_count} sequences -> {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _load_config(args)
    if args.input:
        cfg.tokenizer.input = args.input
    art, result = run_pretrain(cfg, args.out, workdir=args.workdir)
    print(f"run directory: {art.run_dir}")
    if len(result.curve):
        last = result.curve.points[-1]
        print(f"steps {result.steps}  tokens {result.tokens}  "
              f"final loss {last.loss:.4f}")
    if result.aborted:
        print(f"run aborted: {result.abort_reason}", file=sys.stderr)
        return 2
    return 0


def cmd_finetune(args) -> int:
    protocol = FinetuneProtocol(epochs=args.epochs, batch_size=args.batch_size,
                                lr=args.lr)
    run_config = os.path.join(os.path.dirname(args.checkpoint), CONFIG_NAME)
    tok = (load_run_config(run_config) if os.path.exists(run_config) else RunConfig()).tokenizer
    runs = finetune_seeds(args.checkpoint, args.vocab, args.task, protocol, args.seeds,
                          max_chars_per_word=tok.max_chars_per_word,
                          eval_path=args.eval)
    for seed, metrics in enumerate(runs):
        line = f"seed {seed}: accuracy {metrics.accuracy:.4f}"
        if args.matthews:
            line += f"  matthews {metrics.matthews:.4f}"
        print(line)
    print(f"median accuracy over {args.seeds} seed(s): "
          f"{statistics.median(m.accuracy for m in runs):.4f}")
    if args.matthews:
        print(f"median matthews over {args.seeds} seed(s): "
              f"{statistics.median(m.matthews for m in runs):.4f}")
    return 0


def cmd_ablate(args) -> int:
    base = _load_config(args)
    names = [n.strip() for n in args.presets.split(",") if n.strip()]
    rows = []
    for name in names:
        if name not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {name!r}; choose from {', '.join(PRESETS)}"
            )
        rows.append((name, PRESETS[name]))
    results, table = run_ablation(
        base, rows, args.input, args.workdir,
        task_path=args.task, task_seeds=args.seeds,
    )
    if args.out:
        write_text_atomic(args.out, table)
    print(table, end="")
    return 0 if all(r.status == "ok" for r in results) else 2


def cmd_fit_scaling(args) -> int:
    curves = [(path, LossCurve.from_csv(path)) for path in args.curve]
    for path, curve in curves:
        fit = fit_power_law(curve, burn_in=args.burn_in)
        print(f"{path}: loss = {fit.c:.4f} + {fit.a:.4f} * tokens^-{fit.b:.4f}"
              f"  (log residual {fit.residual:.6f})")
    if len(curves) == 2:
        shift = estimate_shift(curves[0][1], curves[1][1], burn_in=args.burn_in)
        print(f"shift factor ({curves[0][0]} vs {curves[1][0]}): "
              f"{shift.factor:.4f}  (residual {shift.residual:.6f})")
    if args.svg:
        series = {path: _chart_series(curve, path) for path, curve in curves}
        write_svg(args.svg, series)
        print(f"wrote chart -> {args.svg}")
    return 0


def cmd_report(args) -> int:
    text = emit_report(args.run_dir, device_name=args.device,
                       baseline_dir=args.baseline)
    if args.out:
        write_text_atomic(args.out, text)
    print(text, end="")
    if args.svg:
        path = os.path.join(args.run_dir, CURVE_NAME)
        curve = LossCurve.from_csv(path)
        write_svg(args.svg, {"loss": _chart_series(curve, path)})
        print(f"wrote chart -> {args.svg}")
    return 0


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key, e.g. train.seed=3 (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cramlab",
        description="compute-budgeted masked-language-model pretraining lab",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("tokenize-train", help="train a WordPiece vocabulary")
    _add_config_args(p)
    p.add_argument("--input", required=True, help="corpus file or directory")
    p.add_argument("--out", required=True, help="vocabulary output path")
    p.set_defaults(func=cmd_tokenize_train)

    p = sub.add_parser("prepare", help="curate a corpus into a packed dataset")
    _add_config_args(p)
    p.add_argument("--input", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="also write the stats text here")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("pretrain", help="run budgeted pretraining")
    _add_config_args(p)
    p.add_argument("--input", help="corpus file or directory")
    p.add_argument("--workdir", default="work",
                   help="shared cache for prepared data")
    p.add_argument("--out", default="run", help="run directory")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="finetune a checkpoint on a TSV task")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--task", required=True, help="training TSV")
    p.add_argument("--eval", help="evaluation TSV (defaults to training set)")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--epochs", type=int, default=FinetuneProtocol.epochs)
    p.add_argument("--batch-size", type=int, default=FinetuneProtocol.batch_size)
    p.add_argument("--lr", type=float, default=FinetuneProtocol.lr)
    p.add_argument("--matthews", action="store_true",
                   help="also report Matthews correlation")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("ablate", help="run an ablation table of presets")
    _add_config_args(p)
    p.add_argument("--input", required=True)
    p.add_argument("--workdir", default="work")
    p.add_argument("--presets", default=",".join(PRESETS),
                   help="comma-separated preset names")
    p.add_argument("--task", help="optional finetune TSV scored per row")
    p.add_argument("--seeds", type=int, default=1,
                   help="finetune seeds per row (median reported)")
    p.add_argument("--out", help="write the table here as well")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("fit-scaling", help="fit power laws to loss curves")
    p.add_argument("--curve", action="append", required=True,
                   help="curve CSV (repeatable; two curves also get a "
                        "shift estimate)")
    p.add_argument("--burn-in", type=float,
                   help="ignore points below this token count")
    p.add_argument("--svg", help="write a loss chart here")
    p.set_defaults(func=cmd_fit_scaling)

    p = sub.add_parser("report", help="summarize a finished run directory")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--device", help="device name for FLOP accounting")
    p.add_argument("--baseline", help="second run directory to diff against")
    p.add_argument("--out", help="write the report here as well")
    p.add_argument("--svg", help="write the loss chart here")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 3
    except (ContractError, FloatingPointError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
