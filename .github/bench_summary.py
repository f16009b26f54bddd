"""Print a markdown table of each benchmark workload's peak RSS and
training throughput, read from the last line of `cramlab_bench/run.py`'s
output. Given a second output, from a run of the base branch, the table
gains that run's values in columns beside them.

    python3 .github/bench_summary.py HEAD_OUTPUT [BASE_OUTPUT]

When a run crashed, its last line is not the result object: a head run
without a result prints no table, and a base run without one reads n/a.
"""

import json
import sys


def read_metrics(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    if not lines or not lines[-1].startswith("{"):
        return None
    return json.loads(lines[-1])["metrics"]


def main(argv: list[str]) -> int:
    head = read_metrics(argv[0])
    if head is None:
        return 0
    with_base = len(argv) > 1
    base = (read_metrics(argv[1]) if with_base else None) or {}
    header = ["workload", "peak_rss_mb (MiB)", "train_tok_s (tok/s)"]
    if with_base:
        header[2:2] = ["base peak_rss_mb (MiB)"]
        header.append("base train_tok_s (tok/s)")
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for key in sorted(head):
        name, _, metric = key.partition("/")
        if metric != "peak_rss_mb":
            continue
        tok_s = name + "/train_tok_s"
        row = [name, f"{head[key]['value']:.1f}", f"{head[tok_s]['value']:.0f}"]
        if with_base:
            row[2:2] = [f"{base[key]['value']:.1f}" if key in base else "n/a"]
            row.append(f"{base[tok_s]['value']:.0f}" if tok_s in base else "n/a")
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
