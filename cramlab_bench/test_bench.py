"""The benchmark's own tests, at shapes small enough to run in seconds.

    PYTHONPATH=src python3 -m pytest -q cramlab_bench
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import inputs
import layers
import workloads
from cramlab.harness import prepare, run_pretrain
from workloads import PrepareSpec, TrainWorkload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TINY_PREPARE = PrepareSpec(vocab_size=256, t=0.3, dedup_min_len=8, lines=300, stems=30)
TINY_DESK = TrainWorkload(
    name="tiny_desk", preset="crammed", num_layers=1, hidden_dim=16,
    num_heads=2, ffn_dim=32, vocab_size=64, micro_batch=2, final_batch=4, steps=4,
    prepare=TINY_PREPARE)
TINY_ORIGINAL = TrainWorkload(
    name="tiny_original", preset="original_arch", num_layers=1, hidden_dim=16,
    num_heads=2, ffn_dim=32, vocab_size=96, micro_batch=2, final_batch=2, steps=6)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_generators_are_deterministic_in_the_seed():
    a = inputs.token_entries(7, 100, 500)
    b = inputs.token_entries(7, 100, 500)
    assert [e.ids for e in a] == [e.ids for e in b]
    assert sum(e.token_count for e in a) >= 500
    assert min(min(e.ids) for e in a) >= 5 and max(max(e.ids) for e in a) < 100
    assert [e.ids for e in inputs.token_entries(8, 100, 500)] != [e.ids for e in a]
    assert inputs.text_corpus(3, 50, 10) == inputs.text_corpus(3, 50, 10)
    assert inputs.text_corpus(3, 50, 10) != inputs.text_corpus(4, 50, 10)
    assert inputs.lexicon(np.random.default_rng(10), 10) == inputs.lexicon(np.random.default_rng(10), 10)


def test_spec_names_units_and_bounds_are_valid(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["paths"] == [os.path.basename(HERE)]
    names = [w["name"] for w in spec["workloads"]]
    assert all(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 for w in spec["workloads"])
    assert names == list(workloads.WORKLOADS)
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    assert all(NAME.fullmatch(n) for n in all_names)
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
               for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("wl", [TINY_DESK, TINY_ORIGINAL], ids=lambda w: w.name)
def test_replay_reproduces_the_untraced_run_bit_for_bit(wl, tmp_path):
    cfg = wl.config(5)
    data = workloads.setup_train(cfg, 5, str(tmp_path))
    _, res = run_pretrain(cfg, str(tmp_path / "run"), data=data)
    rep = layers.replay_pretrain(cfg, data.data_path, str(tmp_path / "replay"))
    assert rep.step0_loss == res.curve.points[0].loss
    assert rep.final_loss == res.curve.points[-1].loss
    problems, reloaded = workloads.reload_problems(cfg, str(tmp_path / "run" / "checkpoint"))
    assert problems == []
    for name, p in rep.model.params.items():
        assert p.data.tobytes() == reloaded.params[name].data.tobytes(), name


def test_staged_prepare_writes_the_cold_prepare_bytes(tmp_path):
    cfg = TINY_PREPARE.config(2)
    corpus = workloads.setup_prepare(TINY_PREPARE, 2, str(tmp_path))
    pd = prepare(cfg, corpus, str(tmp_path / "cache"))
    staged = layers.staged_prepare(cfg, corpus, str(tmp_path))
    with open(pd.data_path, "rb") as fh:
        assert staged.dataset_bytes == fh.read()
    assert workloads.prepare_call_problems(cfg, corpus, str(tmp_path / "cache"), pd) == []


def test_flop_count_matches_a_hand_count():
    m = TINY_DESK.config(0).model  # L1 d16 f32 GLU, V64, S128
    n = 2 * 128
    fwd = 2 * n * 16 * 64 + 4 * n * 128 * 16 + 2 * n * 16 * 32 + 2 * n * 16 * 16
    fwd += 2 * 10 * 16 * 64
    assert layers.matmul_flops_per_token(m, 2, 10) == 3 * fwd / n


@pytest.mark.parametrize("wl", [TINY_DESK, TINY_ORIGINAL], ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [0, 1])
def test_runs_measure_only_declared_metrics_and_pass_their_gates(wl, trace, spec, tmp_path):
    import run

    outcome = run.measure(wl, trace, 3, 0.5, str(tmp_path))
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in declared}
    assert set(outcome.metrics) <= names
    if not trace:
        assert set(outcome.metrics) == names
    assert all(np.isfinite(v) for v in outcome.metrics.values())
    assert outcome.problems == [] and outcome.failed == 0 and outcome.attempted >= 1


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / os.path.basename(HERE),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "run.py"), "--workload",
         "pretrain_crammed_desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
