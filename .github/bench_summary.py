"""Print a markdown table of each benchmark workload's peak RSS,
training throughput, setup seconds and final loss, read from the last
line of `cramlab_bench/run.py`'s output. Given a second output, from a
run of the base branch, the table gains that run's values in columns
beside them, each followed by the relative change head / base - 1 in
percent (n/a when either side lacks the value). The final loss is
printed at full precision (repr), so a change to the training bytes
shows as a differing value.

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


# (metric, unit, formatter) per column pair, in table order.
COLUMNS = [("peak_rss_mb", "MiB", "{:.1f}".format), ("train_tok_s", "tok/s", "{:.0f}".format),
           ("setup_s", "s", "{:.3f}".format), ("final_loss", "nats", repr)]


def relative_change(head: dict, base: dict, key: str) -> str:
    if key not in head or key not in base or not base[key]["value"]:
        return "n/a"
    return f"{(head[key]['value'] / base[key]['value'] - 1) * 100:+.2f}%"


def main(argv: list[str]) -> int:
    head = read_metrics(argv[0])
    if head is None:
        return 0
    with_base = len(argv) > 1
    base = (read_metrics(argv[1]) if with_base else None) or {}
    header = ["workload"]
    for metric, unit, _ in COLUMNS:
        header.append(f"{metric} ({unit})")
        if with_base:
            header += [f"base {metric} ({unit})", f"{metric} change"]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for name in sorted(k.partition("/")[0] for k in head if k.endswith("/peak_rss_mb")):
        row = [name]
        for metric, _, fmt in COLUMNS:
            key = f"{name}/{metric}"
            row.append(fmt(head[key]["value"]) if key in head else "n/a")
            if with_base:
                row += [fmt(base[key]["value"]) if key in base else "n/a",
                        relative_change(head, base, key)]
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
