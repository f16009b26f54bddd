"""cramlab benchmark: one workload per invocation, or all of them.

    python3 cramlab_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 cramlab_bench/run.py --workload all --seed N --seconds S

Run from the root of a source tree: the program is imported from
./src, and BENCHMARK.json next to it names the workloads and metrics.
With --trace 0 the run measures the end-to-end metrics; with --trace 1
it measures the per-layer ones. Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """One BLAS thread per CPU this process may run on; must run before
    numpy is first imported."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def git_commit() -> str:
    """HEAD of ROOT's own .git, read without running git (which would
    search parent directories); 'none' in an exported tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cramlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".txt")):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(args, threads: int) -> dict[str, object]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.25 only prints its build config
        blas = {}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads, "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "python": sys.version.split()[0], "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_spec_names() -> list[str]:
    return [w["name"] for w in load_spec()["workloads"]]


def measure(workload, trace: int, seed: int, seconds: float, work: str):
    # Imported here, not at the top: numpy must not load before
    # pin_blas_threads has run.
    import layers
    import workloads

    fn = layers.run_train_traced if trace else workloads.run_train
    return fn(workload, seed, seconds, work)


def report(spec: dict, args, outcome, prov: dict) -> dict:
    """Print the run as name = value unit lines and return the result
    object. A per-layer metric the workload never runs reads 0."""
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    for key, value in prov.items():
        print(f"# {key} = {value}")
    for key, value in outcome.notes.items():
        print(f"# note.{key} = {value}")
    unknown = set(outcome.metrics) - {m["name"] for m in declared}
    if unknown:
        raise SystemExit(f"measured metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    correct = not outcome.problems and outcome.failed == 0
    for m in declared:
        value = outcome.metrics.get(m["name"])
        if value is None and not args.trace:
            raise SystemExit(f"end-to-end metric {m['name']} was not measured")
        tag = "" if value is not None else "  (not run by this workload)"
        value = 0.0 if value is None else float(value)
        if not math.isfinite(value):
            correct = False
            outcome.problems.append(f"{m['name']} is not finite")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value!r} {m['unit']}{tag}")
    if not args.trace:
        print(f"failed_frac = {outcome.failed / outcome.attempted!r}")
    for problem in outcome.problems:
        print(f"# FAILED: {problem}")
    return {"correct": correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in a child process of its own, so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in load_spec_names():
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  check=False)
            lines = proc.stdout.strip().splitlines()
            print(f"## {name} trace={trace}")
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"# FAILED: {name} trace={trace} exited {proc.returncode}")
                return 1
            got = json.loads(lines[-1])
            merged["correct"] &= got["correct"]
            merged["attempted"] += got["attempted"]
            merged["failed"] += got["failed"]
            for key, value in got["metrics"].items():
                merged["metrics"][f"{name}/{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "cramlab", "__init__.py")):
        print(f"error: no cramlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in load_spec_names():
        parser.error(f"unknown workload {args.workload!r}; choose from {load_spec_names()}")

    threads = pin_blas_threads()
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    import workloads

    prov = provenance(args, threads)
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        outcome = measure(workloads.WORKLOADS[args.workload], args.trace, args.seed,
                          args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report(load_spec(), args, outcome, prov)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
