"""Print the training and corpus-preparation bytes of each benchmark
workload for one source tree, so two trees' runs can be compared digest
by digest.

    python3 .github/run_digests.py TREE
    python3 .github/run_digests.py --summary HEAD_OUTPUT [BASE_OUTPUT]

The first form imports TREE/src and TREE/cramlab_bench/workloads.py and
writes nothing in TREE. For each workload at seeds 1 and 3 it runs one
step-budget run_pretrain on the workload's config and set-up data in a
temporary directory, and prints one line: the workload, the seed, the
sha256 prefixes of the curve, the checkpoint manifest and its blob,
config.txt and report.txt, and the repr of the final loss. For each
workload whose traced run times corpus preparation, it also runs one
cold harness.prepare on that workload's set-up corpus at each seed and
prints the workload, the seed, the data key and the sha256 prefixes of
the vocabulary, the dataset and the stats. Then it loads that seed's
checkpoint, finetunes it for one epoch on a seeded two-class task drawn
from the same corpus, encoded with the prepared vocabulary, and prints
the workload, the seed, the sha256 prefix of the finetuned parameters
and the repr of the accuracy.

It also drives one run per workload and seed into divergence: run_pretrain
on the same config and data with DIVERGE's overrides, and, for each
workload with a finetuning line, finetune of that seed's checkpoint on
the same task at FinetuneProtocol(epochs=1, lr=1e25). Each prints the
workload (with /finetune appended for finetuning), the seed, the sha256
prefix of the parameters the run left, the steps it completed and its
abort message with spaces turned into _ (none if it finished).

The second form reads such outputs and prints a markdown table each of
the training, the preparation, the finetuning and the diverging lines.
Given a second output, from the base tree, each table gains its values
beside them and a column that says whether each run's bytes are the same.
"""

import hashlib
import os
import sys
import tempfile

import numpy as np

SEEDS = (1, 3)
# Each table's line fields after workload and seed: the digests, shown
# in one column joined by " / ", then the other fields. A line's count
# of fields names its table.
TABLES = ((("curve", "manifest", "blob", "config", "report"), ("final_loss",)),
          (("prepare key", "vocab", "data", "stats"), ()),
          (("finetuned params",), ("accuracy",)),
          (("params",), ("steps", "abort")))
TASK_ROWS = 64
# A constant learning rate this large overflows float32 within two steps.
DIVERGE = {"train.schedule_kind": "constant", "train.peak_lr": "1e25"}


def sha256_prefix(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def params_prefix(model) -> str:
    digest = hashlib.sha256()
    for p in model.params.values():
        digest.update(p.data.tobytes())
    return digest.hexdigest()[:16]


def abort_field(reason: str | None) -> str:
    return "none" if reason is None else reason.replace(" ", "_")


def two_class_task(corpus: str, seed: int) -> list[tuple[str, str]]:
    """(line, label) for TASK_ROWS seeded lines of the corpus file, the
    label saying whether the line has more words than their median."""
    with open(corpus, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = np.random.default_rng(seed).choice(len(lines), TASK_ROWS, replace=False)
    picked = [lines[i] for i in rows]
    median = np.median([len(line.split()) for line in picked])
    return [(line, "long" if len(line.split()) > median else "short") for line in picked]


def digest_lines(tree: str) -> list[str]:
    sys.dont_write_bytecode = True  # leave no __pycache__ in TREE
    src = os.path.join(tree, "src")
    sys.path[:0] = [src, os.path.join(tree, "cramlab_bench")]
    import cramlab
    import workloads
    from cramlab import trainer
    from cramlab.checkpoint import blob_path
    from cramlab.config import apply_overrides
    from cramlab.harness import prepare, run_pretrain
    from cramlab.model import Model
    from cramlab.tokenizer import Vocab, WordPieceModel
    from cramlab.trainer import FinetuneProtocol, TaskExample, finetune

    if not os.path.abspath(cramlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"cramlab was imported from {cramlab.__file__}, not from {src}")
    tables = ([], [], [], [])
    for name, workload in sorted(workloads.WORKLOADS.items()):
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as work:
                cfg = workload.config(seed)
                data = workloads.setup_train(cfg, seed, work)
                art, res = run_pretrain(cfg, os.path.join(work, "run"), data=data)
                paths = (art.curve_path, art.checkpoint_path, blob_path(art.checkpoint_path),
                         art.config_path, art.report_path)
                digests = " ".join(sha256_prefix(p) for p in paths)
                tables[0].append(f"{name} {seed} {digests} {res.curve.points[-1].loss!r}")
                art_d, res_d = run_pretrain(apply_overrides(workload.config(seed), DIVERGE),
                                            os.path.join(work, "diverge"), data=data)
                diverged = Model.load(art_d.checkpoint_path)
                tables[3].append(f"{name} {seed} {params_prefix(diverged)} {res_d.steps} "
                                 f"{abort_field(res_d.abort_reason)}")
                if workload.prepare is None:
                    continue
                prep_cfg = workload.prepare.config(seed)
                corpus = workloads.setup_prepare(workload.prepare, seed, work)
                pd = prepare(prep_cfg, corpus, os.path.join(work, "cache"))
                digests = " ".join(sha256_prefix(p) for p in (pd.vocab_path, pd.data_path,
                                                               pd.stats_path))
                tables[1].append(f"{name} {seed} {pd.key} {digests}")
                model = Model.load(art.checkpoint_path)
                wp = WordPieceModel(Vocab.load(pd.vocab_path),
                                    prep_cfg.tokenizer.max_chars_per_word)
                task = [TaskExample(text, None, label)
                        for text, label in two_class_task(corpus, seed)]
                metrics = finetune(model, wp, task, FinetuneProtocol(epochs=1), seed=seed)
                tables[2].append(f"{name} {seed} {params_prefix(model)} {metrics.accuracy!r}")
                # adam_step runs once per completed step, so wrapping it counts them.
                model, steps, reason = Model.load(art.checkpoint_path), [], None
                adam_step = trainer.adam_step
                trainer.adam_step = lambda *args: steps.append(1) or adam_step(*args)
                try:
                    finetune(model, wp, task, FinetuneProtocol(epochs=1, lr=1e25), seed=seed)
                except FloatingPointError as exc:
                    reason = str(exc)
                finally:
                    trainer.adam_step = adam_step
                tables[3].append(f"{name}/finetune {seed} {params_prefix(model)} {len(steps)} "
                                 f"{abort_field(reason)}")
    return [line for table in tables for line in table]


def read_runs(path: str, digests: tuple[str, ...],
              others: tuple[str, ...]) -> dict[tuple[str, str], tuple[str, ...]]:
    """(workload, seed) -> (digests joined by ' / ', *others), for the
    lines of path with exactly those fields."""
    runs = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) == 2 + len(digests) + len(others):
                    runs[fields[0], fields[1]] = (" / ".join(fields[2:2 + len(digests)]),
                                                  *fields[2 + len(digests):])
    except OSError:
        pass
    return runs


def summary_lines(head_path: str, base_path: str | None) -> list[str]:
    lines = []
    for digests, others in TABLES:
        head = read_runs(head_path, digests, others)
        columns = [" / ".join(digests), *others]
        header = ["workload", "seed", *columns]
        if base_path is not None:
            base = read_runs(base_path, digests, others)
            header += [f"base {c}" for c in columns] + ["bytes"]
        lines += ["", "| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        for key, values in head.items():
            row = [*key, *values]
            if base_path is not None:
                other = base.get(key)
                row += [*(other or ["n/a"] * len(columns)),
                        "n/a" if other is None else "same" if other == values else "differs"]
            lines.append("| " + " | ".join(row) + " |")
    return lines[1:]


def main(argv: list[str]) -> int:
    if len(argv) == 1 and argv[0] != "--summary":
        lines = digest_lines(os.path.abspath(argv[0]))
    elif argv[:1] == ["--summary"] and len(argv) in (2, 3):
        lines = summary_lines(argv[1], argv[2] if len(argv) == 3 else None)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
