"""Print the training bytes of each benchmark workload for one source
tree, so two trees' runs can be compared digest by digest.

    python3 .github/run_digests.py TREE
    python3 .github/run_digests.py --summary HEAD_OUTPUT [BASE_OUTPUT]

The first form imports TREE/src and TREE/cramlab_bench/workloads.py and
writes nothing in TREE. For each workload at seeds 1 and 3 it runs one
step-budget run_pretrain on the workload's config and set-up data in a
temporary directory, and prints one line: the workload, the seed, the
sha256 prefixes of the curve, the checkpoint manifest and its blob, and
the repr of the final loss.

The second form reads such outputs and prints a markdown table. Given a
second output, from the base tree, the table gains its values beside
them and a column that says whether each run's bytes are the same.
"""

import hashlib
import os
import sys
import tempfile

SEEDS = (1, 3)


def sha256_prefix(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def digest_lines(tree: str) -> list[str]:
    sys.dont_write_bytecode = True  # leave no __pycache__ in TREE
    src = os.path.join(tree, "src")
    sys.path[:0] = [src, os.path.join(tree, "cramlab_bench")]
    import cramlab
    import workloads
    from cramlab.checkpoint import blob_path
    from cramlab.harness import run_pretrain

    if not os.path.abspath(cramlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"cramlab was imported from {cramlab.__file__}, not from {src}")
    lines = []
    for name, workload in sorted(workloads.WORKLOADS.items()):
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as work:
                cfg = workload.config(seed)
                data = workloads.setup_train(cfg, seed, work)
                art, res = run_pretrain(cfg, os.path.join(work, "run"), data=data)
                paths = (art.curve_path, art.checkpoint_path, blob_path(art.checkpoint_path))
                digests = " ".join(sha256_prefix(p) for p in paths)
                lines.append(f"{name} {seed} {digests} {res.curve.points[-1].loss!r}")
    return lines


def read_runs(path: str) -> dict[tuple[str, str], tuple[str, str]]:
    """(workload, seed) -> (digests joined by ' / ', final loss)."""
    runs = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) == 6:
                    runs[fields[0], fields[1]] = (" / ".join(fields[2:5]), fields[5])
    except OSError:
        pass
    return runs


def summary_lines(head_path: str, base_path: str | None) -> list[str]:
    head = read_runs(head_path)
    header = ["workload", "seed", "curve / manifest / blob", "final_loss"]
    if base_path is not None:
        base = read_runs(base_path)
        header += ["base curve / manifest / blob", "base final_loss", "bytes"]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for key, values in head.items():
        row = [*key, *values]
        if base_path is not None:
            other = base.get(key)
            row += [*(other or ("n/a", "n/a")),
                    "n/a" if other is None else "same" if other == values else "differs"]
        lines.append("| " + " | ".join(row) + " |")
    return lines


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
