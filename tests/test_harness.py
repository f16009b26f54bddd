"""Configuration files, the prepare cache, run directories, reports,
ablation tables, SVG charts, and CLI exit codes.

All runs here are miniature: a 512-entry vocabulary, a 2-layer d=32
model on 32-token sequences, and single-digit step budgets. The shared
module workdir exercises the content-keyed data cache the way real
experiments would.
"""

import dataclasses
import hashlib
import importlib
import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import composed_ops
from conftest import make_lexicon, make_sentences
from cramlab import checkpoint as ckpt
from cramlab import budget, cli, harness
from cramlab.config import (
    PRESETS, RunConfig, TokenizerSection, apply_overrides, config_diff, load_run_config,
    parse_run_config, render_run_config,
)
from cramlab.corpus import load_dataset, save_dataset
from cramlab.errors import AnalysisError, ConfigurationError, ContractError
from cramlab.harness import (
    CONFIG_NAME, CURVE_NAME, REPORT_NAME, STATS_NAME, data_key, emit_report, finetune_seeds,
    prepare, read_entries, render_ablation_table, run_ablation, run_pretrain, write_svg,
    write_text_atomic,
)
from cramlab.model import Model
from cramlab.serde import render_scalar
from cramlab.tokenizer import Vocab
from cramlab.trainer import (
    CurvePoint, FinetuneProtocol, LossCurve, TrainSection, encode_task_batch, load_task,
)


def base_cfg() -> RunConfig:
    cfg = RunConfig()
    cfg.tokenizer.vocab_size = 512
    cfg.pipeline.seq_len = 32
    cfg.model.num_layers = 2
    cfg.model.hidden_dim = 32
    cfg.model.num_heads = 2
    cfg.model.ffn_dim = 64
    cfg.model.vocab_size = 512
    cfg.model.seq_len = 32
    cfg.train.micro_batch = 4
    cfg.train.final_batch = 4
    cfg.train.budget_steps = 8
    cfg.report.curve_interval = 4
    return cfg


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    rng = np.random.default_rng(201)
    lex = make_lexicon(rng, n_stems=80)
    path = tmp_path_factory.mktemp("mini-corpus") / "mini.txt"
    with open(path, "w", encoding="utf-8") as fh:
        for line in make_sentences(rng, lex, 500):
            fh.write(line + "\n")
    return str(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("mini-work"))


@pytest.fixture(scope="module")
def prepared(corpus_path, workdir):
    return prepare(base_cfg(), corpus_path, workdir)


@pytest.fixture(scope="module")
def finished_run(prepared, workdir):
    cfg = base_cfg()
    art, result = run_pretrain(cfg, os.path.join(workdir, "run-a"), data=prepared)
    assert not result.aborted
    return cfg, art, result


@pytest.fixture(scope="module")
def second_run(prepared, workdir):
    # differs from finished_run in one model key, for diff reports
    cfg = base_cfg()
    cfg.model.norm_placement = "post"
    art, result = run_pretrain(cfg, os.path.join(workdir, "run-b"), data=prepared)
    return cfg, art, result


@pytest.fixture(scope="module")
def task_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("task") / "task.tsv"
    rows = [("the miller ground the grain", "0"),
            ("a quiet harbor at dusk", "1"),
            ("the oven warmed the loaves", "0"),
            ("gulls circled the pier", "1")] * 2
    with open(path, "w", encoding="utf-8") as fh:
        for text, label in rows:
            fh.write(f"{text}\t{label}\n")
    return str(path)


# -- configuration files ------------------------------------------------------

def test_empty_config_is_all_defaults():
    cfg = parse_run_config("")
    assert cfg.train.peak_lr == 1e-3
    assert cfg.train.final_batch == 4096
    assert cfg.tokenizer.vocab_size == 32768
    assert cfg.model.norm_placement == "pre"


def test_parse_sets_values_and_ignores_comments():
    text = """
    # a comment line
    train.peak_lr = 2e-3   # trailing comment
    model.hidden_dim = 256

    pipeline.sort = false
    pipeline.t = none
    """
    cfg = parse_run_config(text)
    assert cfg.train.peak_lr == 2e-3
    assert cfg.model.hidden_dim == 256
    assert cfg.pipeline.sort is False
    assert cfg.pipeline.t is None


def test_hash_inside_a_value_survives_render_and_parse():
    cfg = RunConfig()
    cfg.tokenizer.input = "/data/corpus#1.txt"
    again = parse_run_config(render_run_config(cfg))
    assert again.tokenizer.input == "/data/corpus#1.txt"
    trailing = parse_run_config("tokenizer.input = a#b.txt\t# where the corpus lives\n")
    assert trailing.tokenizer.input == "a#b.txt"


@pytest.mark.parametrize("value", [
    "/data/my corpus #1.txt", "#corpus.txt", "corpus\n1.txt", "corpus\r1.txt", " corpus.txt",
    "corpus.txt\t",
])
def test_values_that_would_not_read_back_are_rejected(value):
    cfg = RunConfig()
    cfg.tokenizer.input = value
    with pytest.raises(ConfigurationError, match="^tokenizer.input = "):
        cfg.validate()


def test_bool_parsing_accepts_common_spellings():
    cfg = RunConfig()
    for text, want in (("true", True), ("1", True), ("on", True),
                       ("false", False), ("no", False)):
        cfg.set("pipeline.sort", text)
        assert cfg.pipeline.sort is want
    with pytest.raises(ConfigurationError, match="boolean"):
        cfg.set("pipeline.sort", "maybe")


def test_unknown_keys_are_rejected():
    cfg = RunConfig()
    with pytest.raises(ConfigurationError, match="unknown config key"):
        cfg.set("train.nope", "1")
    with pytest.raises(ConfigurationError, match="unknown config key"):
        cfg.set("nonsense.peak_lr", "1")
    with pytest.raises(ConfigurationError, match="unknown config key"):
        cfg.set("peak_lr", "1")


def test_parse_reports_line_number_for_missing_equals():
    with pytest.raises(ConfigurationError, match="line 2"):
        parse_run_config("train.seed = 1\ntrain.peak_lr\n")


def test_bad_scalar_values_are_rejected():
    cfg = RunConfig()
    with pytest.raises(ConfigurationError, match="integer"):
        cfg.set("train.micro_batch", "many")
    with pytest.raises(ConfigurationError, match="number"):
        cfg.set("train.peak_lr", "fast")


@pytest.mark.parametrize("key, value, message", [
    ("train.peak_lr", "fast", "not a finite number: 'fast'"),
    ("train.micro_batch", "many", "not an integer: 'many'"),
    ("model.final_norm", "maybe", "not a boolean: 'maybe'"),
])
def test_bad_scalar_errors_name_the_key_and_line(key, value, message):
    with pytest.raises(ConfigurationError, match=f"^{key}: {message}$"):
        RunConfig().set(key, value)
    text = f"train.seed = 1\n# a comment\n{key} = {value}\n"
    with pytest.raises(ConfigurationError, match=f"^line 3: {key}: {message}$"):
        parse_run_config(text)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", [
    "train.peak_lr", "train.eps", "train.weight_decay", "train.clip_norm",
    "model.layer_norm_eps", "pipeline.t", "train.budget_hours",
])
def test_non_finite_numbers_are_rejected_where_parsed(key, value):
    # Comparisons with nan are false, so a later range check would pass
    # it: clip_norm = nan would turn clipping off without a word.
    with pytest.raises(ConfigurationError, match=f"not a finite number: '{value}'"):
        parse_run_config(f"{key} = {value}\n")


def test_render_parse_round_trip():
    cfg = base_cfg()
    cfg.train.clip_norm = None
    cfg.pipeline.t = 0.17
    again = parse_run_config(render_run_config(cfg))
    assert config_diff(cfg, again) == {}
    assert render_run_config(again) == render_run_config(cfg)


def test_rendered_defaults_and_presets_keep_their_bytes():
    # Older config.txt files and checkpoint manifests hold these bytes:
    # every PRESETS entry rendered over the defaults, joined in dict order.
    texts = [render_run_config(apply_overrides(RunConfig(), overrides))
             for overrides in PRESETS.values()]
    assert render_run_config(RunConfig()) == texts[list(PRESETS).index("crammed")]
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
        "073bf36db82cf3db750eb53539d973d82bcda9d76f73a0fe56cbced2b2322c47")


def test_every_train_key_reaches_its_trainer_config_field():
    # train.* key -> (TrainSection builder, trainer config field, a value
    # other than the default)
    routes = {
        "schedule_kind": ("schedule", "schedule_kind", "cosine_decay"),
        "peak_lr": ("schedule", "peak_lr", "0.002"),
        "peak_fraction": ("schedule", "peak_fraction", "0.3"),
        "micro_batch": ("ramp", "micro_batch", "16"),
        "final_batch": ("ramp", "final_batch", "8192"),
        "ramp_end_fraction": ("ramp", "ramp_end_fraction", "0.25"),
        "beta1": ("optimizer", "beta1", "0.8"),
        "beta2": ("optimizer", "beta2", "0.999"),
        "eps": ("optimizer", "eps", "1e-06"),
        "weight_decay": ("optimizer", "weight_decay", "0.05"),
        "clip_norm": ("optimizer", "clip_norm", "none"),
        "mask_rate": ("masking", "mask_rate", "0.2"),
        "p_mask": ("masking", "p_mask", "0.7"),
        "p_random": ("masking", "p_random", "0.2"),
    }
    assert set(routes) | {"budget_steps", "budget_hours", "seed"} == {
        f.name for f in dataclasses.fields(TrainSection)}
    for key, (builder, name, text) in routes.items():
        cfg = RunConfig()
        cfg.set(f"train.{key}", text)
        built = getattr(cfg.train, builder)()
        default = getattr(RunConfig().train, builder)()
        assert render_scalar(getattr(built, name)) == text
        assert render_scalar(getattr(default, name)) != text
        assert built == dataclasses.replace(default, **{name: getattr(built, name)})
    assert RunConfig().train.schedule(7).total_steps == 7


def test_config_diff_names_changed_keys():
    a = base_cfg()
    b = base_cfg()
    b.model.hidden_dim = 64
    b.train.seed = 7
    diff = config_diff(a, b)
    assert set(diff) == {"model.hidden_dim", "train.seed"}
    assert diff["model.hidden_dim"] == ("32", "64")


def test_budget_requires_exactly_one_kind():
    # The horizon is the budget in the progress clock's unit: steps as
    # given, or hours in seconds.
    cfg = RunConfig()
    with pytest.raises(ConfigurationError, match="exactly one"):
        cfg.train.horizon()
    cfg.train.budget_steps = 10
    cfg.train.budget_hours = 1.0
    with pytest.raises(ConfigurationError, match="exactly one"):
        cfg.train.horizon()
    cfg.train.budget_hours = None
    assert cfg.train.horizon() == 10 and isinstance(cfg.train.horizon(), int)
    cfg.train.budget_steps, cfg.train.budget_hours = None, 0.5
    assert cfg.train.horizon() == 1800.0


def test_validate_catches_cross_section_mismatches():
    cfg = base_cfg()
    cfg.model.vocab_size = 1024
    with pytest.raises(ConfigurationError, match="vocab_size"):
        cfg.validate()
    cfg = base_cfg()
    cfg.pipeline.seq_len = 64
    with pytest.raises(ConfigurationError, match="seq_len"):
        cfg.validate()
    cfg = base_cfg()
    cfg.report.curve_interval = 0
    with pytest.raises(ConfigurationError, match="curve_interval"):
        cfg.validate()


def test_validate_refuses_a_nonpositive_max_chars_per_word():
    # Else prepare trains the whole vocabulary before WordPieceModel
    # refuses it.
    cfg = base_cfg()
    cfg.tokenizer.max_chars_per_word = 0
    with pytest.raises(ConfigurationError, match="tokenizer.max_chars_per_word must be positive"):
        cfg.validate()


def test_every_preset_applies_and_validates():
    for name, overrides in PRESETS.items():
        cfg = RunConfig()
        apply_overrides(cfg, overrides)
        cfg.validate()
    assert PRESETS["crammed"] == {}
    cfg = RunConfig()
    apply_overrides(cfg, PRESETS["vocab_16384"])
    assert cfg.tokenizer.vocab_size == cfg.model.vocab_size == 16384
    cfg = RunConfig()
    apply_overrides(cfg, PRESETS["original_train"])
    assert cfg.train.clip_norm is None
    assert cfg.model.dropout_rate == 0.1


# -- corpus input and the prepare cache ---------------------------------------

def test_read_entries_skips_blank_lines(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("one\n\n  \ntwo\n", encoding="utf-8")
    assert read_entries(str(p)) == ["one", "two"]


def test_read_entries_walks_directory_in_name_order(tmp_path):
    (tmp_path / "b.txt").write_text("later\n", encoding="utf-8")
    (tmp_path / "a.txt").write_text("sooner\n", encoding="utf-8")
    (tmp_path / "ignored.bin").write_text("junk\n", encoding="utf-8")
    assert read_entries(str(tmp_path)) == ["sooner", "later"]


def test_read_entries_error_cases(tmp_path):
    with pytest.raises(ConfigurationError, match="not found"):
        read_entries(str(tmp_path / "missing.txt"))
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="empty"):
        read_entries(str(empty))
    nodir = tmp_path / "nodir"
    nodir.mkdir()
    with pytest.raises(ConfigurationError, match="no .txt files"):
        read_entries(str(nodir))


def test_data_key_tracks_data_inputs_only(corpus_path, tmp_path):
    cfg = base_cfg()
    entries = read_entries(corpus_path)
    key = data_key(cfg, entries)
    assert key == data_key(base_cfg(), entries)

    other = base_cfg()
    other.model.hidden_dim = 64
    other.train.peak_lr = 9e-9
    assert data_key(other, entries) == key  # model/train not hashed

    other = base_cfg()
    other.pipeline.t = 0.5
    assert data_key(other, entries) != key

    altered = tmp_path / "altered.txt"
    with open(corpus_path, encoding="utf-8") as fh:
        body = fh.read()
    altered.write_text(body + "one extra line\n", encoding="utf-8")
    assert data_key(cfg, read_entries(str(altered))) != key

    # The same bytes under a second path, named the way a user might.
    moved = tmp_path / "moved.txt"
    moved.write_text(body, encoding="utf-8")
    other = base_cfg()
    other.tokenizer.input = os.path.join(os.path.relpath(tmp_path), ".", "moved.txt")
    assert data_key(other, read_entries(other.tokenizer.input)) == key


def test_prepare_reuses_cached_artifacts(prepared, corpus_path, workdir):
    # a sentinel survives only if prepare skips the recompute
    with open(prepared.stats_path, "a", encoding="utf-8") as fh:
        fh.write("sentinel\n")
    again = prepare(base_cfg(), corpus_path, workdir)
    assert again.key == prepared.key
    assert again.data_path == prepared.data_path
    with open(again.stats_path, encoding="utf-8") as fh:
        assert "sentinel" in fh.read()


# -- run directories -----------------------------------------------------------

def test_run_writes_all_artifacts(finished_run):
    cfg, art, result = finished_run
    for path in (art.config_path, art.curve_path, art.checkpoint_path,
                 art.stats_path, art.report_path):
        assert os.path.exists(path)
    assert os.path.exists(art.checkpoint_path + ".bin")


def test_run_config_file_reproduces_the_run_config(finished_run):
    cfg, art, result = finished_run
    with open(art.config_path, encoding="utf-8") as fh:
        stored = parse_run_config(fh.read())
    assert config_diff(cfg, stored) == {}


def test_run_curve_matches_budget(finished_run):
    cfg, art, result = finished_run
    curve = LossCurve.from_csv(art.curve_path)
    assert curve.points[-1].step == 8
    assert [p.step for p in curve.points] == [0, 4, 8]
    assert result.steps == 8


def test_run_checkpoint_is_loadable(finished_run):
    cfg, art, result = finished_run
    model = Model.load(art.checkpoint_path)
    assert model.config.hidden_dim == 32


class _Killed(BaseException):
    pass


def _killed_rerun_keeps_the_file_whole(monkeypatch, path, rerun):
    # rerun dies halfway through writing path; path must still hold the
    # first run's bytes.
    with open(path, "rb") as fh:
        before = fh.read()
    name = os.path.basename(path)

    class TornWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            raise _Killed(name)

    real_open = open

    def dying_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and os.path.basename(str(file)).startswith(name):
            return TornWriter(fh)
        return fh

    monkeypatch.setattr("builtins.open", dying_open)
    with pytest.raises(_Killed):
        rerun()
    monkeypatch.undo()
    with open(path, "rb") as fh:
        assert fh.read() == before


@pytest.mark.parametrize("name", [CONFIG_NAME, STATS_NAME, CURVE_NAME, REPORT_NAME])
def test_run_killed_mid_write_keeps_the_previous_file_whole(prepared, tmp_path, monkeypatch,
                                                             name):
    # A rerun into the same directory dies writing one text file.
    cfg = base_cfg()
    cfg.train.budget_steps = 2
    run_dir = str(tmp_path / "run")
    run_pretrain(cfg, run_dir, data=prepared)
    _killed_rerun_keeps_the_file_whole(
        monkeypatch, os.path.join(run_dir, name), lambda: run_pretrain(cfg, run_dir, data=prepared))


@pytest.mark.parametrize("verb", ["prepare", "ablate", "report"])
def test_cli_killed_mid_write_keeps_the_previous_output_whole(
        verb, corpus_path, workdir, prepared, finished_run, tmp_path, monkeypatch, capsys):
    # prepare --report, ablate --out and report --out, rerun onto their
    # own output, die writing it.
    out = str(tmp_path / "out.txt")
    cfg_path = str(tmp_path / "base.cfg")
    write_text_atomic(cfg_path, render_run_config(base_cfg()))
    argv = {
        "prepare": ["prepare", "--config", cfg_path, "--input", corpus_path,
                    "--vocab", prepared.vocab_path, "--out", str(tmp_path / "d.bin"),
                    "--report", out],
        "ablate": ["ablate", "--config", cfg_path, "--input", corpus_path,
                   "--workdir", workdir, "--presets", "crammed", "--out", out],
        "report": ["report", "--run-dir", finished_run[1].run_dir, "--out", out],
    }[verb]
    assert cli.main(argv) == 0
    _killed_rerun_keeps_the_file_whole(monkeypatch, out, lambda: cli.main(argv))


@pytest.mark.parametrize("kind", ["vocab", "dataset"])
def test_killed_artifact_save_keeps_the_previous_file_whole(prepared, tmp_path, monkeypatch,
                                                            kind):
    # The kill is an exception, so the writer also removes its temporary.
    vocab, ds = Vocab.load(prepared.vocab_path), load_dataset(prepared.data_path)
    path = str(tmp_path / kind)
    save = (lambda: vocab.save(path)) if kind == "vocab" else (lambda: save_dataset(path, ds))
    save()
    _killed_rerun_keeps_the_file_whole(monkeypatch, path, save)
    assert os.listdir(tmp_path) == [kind]


def test_overlapping_writers_of_one_path_each_commit_whole_bytes(tmp_path, monkeypatch):
    # A second writer of path runs from start to end while the first is
    # halfway through its write; both return, the last rename wins.
    path = str(tmp_path / "out.txt")
    real_open = open

    class Overtaken:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            monkeypatch.setattr("builtins.open", real_open)
            write_text_atomic(path, "B" * 10)
            self.fh.write(text[len(text) // 2:])

    monkeypatch.setattr("builtins.open", lambda *a, **k: Overtaken(real_open(*a, **k)))
    write_text_atomic(path, "A" * 10)
    monkeypatch.undo()
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "A" * 10
    assert os.listdir(tmp_path) == ["out.txt"]
    umask = os.umask(0)
    os.umask(umask)
    assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask  # open()'s bits, not mkstemp's


def _curve_and_blob(cfg, run_dir, prepared):
    art, result = run_pretrain(cfg, run_dir, data=prepared)
    assert not result.aborted, result.abort_reason
    with open(art.curve_path, encoding="utf-8") as fh:
        curve = fh.read()
    with open(ckpt.blob_path(art.checkpoint_path), "rb") as fh:
        return curve, fh.read()


def test_fused_ops_train_bit_for_bit_like_composed_reference(prepared, tmp_path,
                                                             monkeypatch):
    # A 4-step crammed run with rotary positions goes through glu_gelu
    # and rotary attend in every block, and an original_arch run through
    # attend on biased q/k/v projections; swapping in the generic-op
    # compositions must not change a single bit of the curves or the
    # parameters.
    rotary = base_cfg()
    rotary.model.embedding_kind = "rotary"
    original = base_cfg()
    apply_overrides(original, PRESETS["original_arch"])
    assert original.model.qkv_bias and original.model.linear_bias
    cfgs = {"rotary": rotary, "original_arch": original}
    for cfg in cfgs.values():
        cfg.train.budget_steps = 4
        cfg.report.curve_interval = 1

    def runs(tag):
        return {name: _curve_and_blob(cfg, str(tmp_path / f"{tag}-{name}"), prepared)
                for name, cfg in cfgs.items()}

    fused = runs("fused")
    monkeypatch.setattr("cramlab.model.glu_gelu", composed_ops.glu_gelu)
    monkeypatch.setattr("cramlab.model.attend", composed_ops.attend)
    composed = runs("composed")
    assert all(curve.count("\n") == 6 for curve, _ in fused.values())  # header, steps 0-4
    assert composed == fused


def test_every_bias_fused_into_its_product_trains_bit_for_bit_like_separate_adds(
        prepared, tmp_path, monkeypatch):
    # original_arch runs every bias: q/k/v, the output and FFN
    # projections, the nonlinear head and the decoder over the tied
    # table. Adding each inside matmul or matmul_t must give the same
    # curve and parameters as separate add ops.
    cfg = base_cfg()
    apply_overrides(cfg, PRESETS["original_arch"])
    cfg.train.budget_steps = 4
    cfg.report.curve_interval = 1
    m = cfg.model
    assert m.qkv_bias and m.linear_bias and m.nonlinear_head
    assert m.decoder_bias and m.tie_embeddings

    fused = _curve_and_blob(cfg, str(tmp_path / "fused"), prepared)
    monkeypatch.setattr("cramlab.model.matmul", composed_ops.matmul)
    monkeypatch.setattr("cramlab.model.matmul_t", composed_ops.matmul_t)
    composed = _curve_and_blob(cfg, str(tmp_path / "composed"), prepared)
    assert fused[0].count("\n") == 6  # header, steps 0-4
    assert composed == fused


@pytest.mark.parametrize("preset", ["crammed", "original_arch"])
def test_guard_off_steps_train_bit_for_bit_like_guarded_steps(prepared, tmp_path,
                                                              monkeypatch, preset):
    # Each optimizer step runs with the per-op finiteness guard off; the
    # guard only reads op outputs, so a run with it kept on throughout
    # must give the same curve and parameters.
    cfg = base_cfg()
    apply_overrides(cfg, PRESETS[preset])
    cfg.train.budget_steps = 4
    cfg.report.curve_interval = 1

    unguarded = _curve_and_blob(cfg, str(tmp_path / "unguarded"), prepared)
    toggles = []
    monkeypatch.setattr("cramlab.trainer.set_finite_checks",
                        lambda enabled: toggles.append(enabled) or True)
    guarded = _curve_and_blob(cfg, str(tmp_path / "guarded"), prepared)
    assert toggles == [False, True] * 4  # off for each step, then restored
    assert unguarded[0].count("\n") == 6  # header, steps 0-4
    assert guarded == unguarded


def test_pretrain_trains_with_model_dropout_rate(prepared, tmp_path, monkeypatch):
    # The original_train preset sets model.dropout_rate = 0.1. Training
    # micro-batches must apply it and the step-0 evaluation must not;
    # at 0.0 a run must train bit for bit like a forward that is given
    # no dropout arguments at all.
    def run(rate, tag):
        cfg = base_cfg()
        cfg.model.dropout_rate = rate
        cfg.train.budget_steps = 4
        cfg.report.curve_interval = 1
        return _curve_and_blob(cfg, str(tmp_path / tag), prepared)

    plain, dropped = run(0.0, "plain"), run(0.1, "dropped")
    assert dropped[0].splitlines()[:2] == plain[0].splitlines()[:2]  # header, step 0
    assert dropped[0] != plain[0] and dropped[1] != plain[1]

    loss = Model.loss
    monkeypatch.setattr(Model, "loss", lambda self, ids, masked_positions, labels, **_:
                        loss(self, ids, masked_positions, labels))
    assert run(0.0, "no-dropout-args") == plain


def test_stale_dataset_vocab_is_rejected(prepared, tmp_path):
    cfg = base_cfg()
    cfg.tokenizer.vocab_size = 1024
    cfg.model.vocab_size = 1024
    with pytest.raises(ConfigurationError, match="dataset vocab size"):
        run_pretrain(cfg, str(tmp_path / "r"), data=prepared)


def test_stale_dataset_seq_len_is_rejected(prepared, tmp_path):
    cfg = base_cfg()
    cfg.pipeline.seq_len = 64
    cfg.model.seq_len = 64
    with pytest.raises(ConfigurationError, match="seq_len"):
        run_pretrain(cfg, str(tmp_path / "r"), data=prepared)


def test_diverging_run_is_reported_not_raised(prepared, tmp_path):
    cfg = base_cfg()
    cfg.train.schedule_kind = "constant"
    cfg.train.peak_lr = 1e25
    art, result = run_pretrain(cfg, str(tmp_path / "boom"), data=prepared)
    assert result.aborted
    assert "non-finite" in result.abort_reason
    assert os.path.exists(art.curve_path)
    # The harness saves the parameters of the last completed step.
    model = Model.load(art.checkpoint_path)
    assert all(np.isfinite(p.data).all() for p in model.params.values())


# -- reports -------------------------------------------------------------------

def test_report_has_all_sections(finished_run):
    cfg, art, result = finished_run
    text = emit_report(art.run_dir)
    for section in ("[run]", "[dataset]", "[training]", "[budget]", "[scaling]"):
        assert section in text
    assert f"final loss = {result.curve.points[-1].loss:.6f}" in text
    assert "elapsed seconds = n/a (step budget)" in text
    # 3 curve points cannot support a power-law fit
    assert "power law: not fitted" in text


def test_report_prints_device_budget_for_wallclock_runs(finished_run, tmp_path):
    # The device budget is peak x wallclock, the exaFLOP column
    # of the paper's table; a step-budget run has no wallclock to use.
    _, art, _ = finished_run
    text = emit_report(art.run_dir)
    assert "device budget exaflops = n/a (step budget)" in text
    timed = tmp_path / "timed"
    shutil.copytree(art.run_dir, timed)
    curve = LossCurve.from_csv(art.curve_path)
    for i, point in enumerate(curve.points):
        point.seconds = 1800.0 * i
    write_text_atomic(str(timed / "curve.csv"), curve.to_csv_text())
    text = emit_report(str(timed), device_name="v100")
    hours = 0.5 * (len(curve) - 1)
    assert f"device budget exaflops = {125e12 * hours * 3600 / 1e18:.6f}" in text
    assert "utilization = 0." in text


def test_report_diff_section(finished_run, second_run):
    _, art_a, _ = finished_run
    _, art_b, _ = second_run
    text = emit_report(art_b.run_dir, baseline_dir=art_a.run_dir)
    assert "[diff]" in text
    assert "model.norm_placement: pre -> post" in text
    same = emit_report(art_a.run_dir, baseline_dir=art_a.run_dir)
    assert "no configuration differences" in same


def test_report_unknown_device_is_tolerated(finished_run):
    _, art, _ = finished_run
    text = emit_report(art.run_dir, device_name="abacus")
    assert "abacus (unknown, no peak rate)" in text


def test_report_requires_artifacts(tmp_path):
    with pytest.raises(ConfigurationError, match="missing"):
        emit_report(str(tmp_path))


# -- ablations -----------------------------------------------------------------

def test_ablation_runs_rows_and_renders_table(corpus_path, workdir, task_path):
    rows = [("crammed", {}),
            ("half lr", {"train.peak_lr": "5e-4"})]
    results, table = run_ablation(base_cfg(), rows, corpus_path, workdir,
                                  task_path=task_path)
    assert [r.status for r in results] == ["ok", "ok"]
    assert results[0].final_loss is not None
    assert all(0.0 <= r.task_metric <= 1.0 for r in results)
    lines = table.splitlines()
    assert lines[0].split() == ["name", "final_loss", "steps", "tokens",
                                "status", "task_metric"]
    assert len(lines) == 3
    assert "half lr" in lines[2]
    assert os.path.isdir(os.path.join(workdir, "run-half-lr"))


def test_prepare_and_each_ablation_row_read_the_corpus_once(corpus_path, task_path, tmp_path,
                                                            monkeypatch):
    reads = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if str(file) == corpus_path:
            reads.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    cold = str(tmp_path / "cold")
    prepare(base_cfg(), corpus_path, cold)
    assert len(reads) == 1
    rows = [("a", {"train.budget_steps": "2"}),
            ("b", {"train.budget_steps": "2", "train.seed": "1"})]
    run_ablation(base_cfg(), rows, corpus_path, cold, task_path=task_path)
    assert len(reads) == 1 + len(rows)


def test_ablation_row_config_reruns_the_row(corpus_path, workdir, tmp_path):
    # A row's config.txt names its corpus, so `pretrain --config` on it
    # repeats the row's run.
    run_ablation(base_cfg(), [("crammed", {})], corpus_path, workdir)
    row_dir = os.path.join(workdir, "run-crammed")
    cfg = load_run_config(os.path.join(row_dir, CONFIG_NAME))
    assert cfg.tokenizer.input == corpus_path
    art, _ = run_pretrain(cfg, str(tmp_path / "rerun"), workdir=workdir)
    with open(os.path.join(row_dir, CURVE_NAME), "rb") as a, open(art.curve_path, "rb") as b:
        assert a.read() == b.read()


def test_ablation_validates_every_row_before_running(corpus_path, tmp_path, monkeypatch):
    # The memory check reads a fixed 8 GiB, so the row that cannot fit
    # is refused on any host.
    monkeypatch.setattr(budget, "available_memory", lambda: 8 * 2 ** 30)
    bad_rows = [
        (("bad", {"model.nope": "1"}), "unknown config key"),
        (("bad", {"train.peak_lr": "-1"}), "peak_lr"),
        (("bad", {"train.schedule_kind": "cosine"}), "schedule kind"),
        (("bad", {"train.micro_batch": "0"}), "micro_batch"),
        (("bad", {"train.beta1": "1.0"}), "betas"),
        (("bad", {"train.p_mask": "0.95"}), "p_mask"),
        (("bad", {"train.seed": "-1"}), "train.seed"),
        (("bad", {"pipeline.shuffle_seed": "-1"}), "shuffle_seed"),
        (("bad", {"train.micro_batch": "10000000", "train.final_batch": "10000000"}),
         "needs about"),
        # "Fine" is a fine config, but its run directory is run-fine too.
        (("Fine", {}), "share the run directory"),
    ]
    for bad_row, message in bad_rows:
        rows = [("fine", {}), bad_row]
        with pytest.raises(ConfigurationError, match=message):
            run_ablation(base_cfg(), rows, corpus_path, str(tmp_path))
        assert not os.path.exists(str(tmp_path / "run-fine"))


def test_ablation_marks_diverged_rows_failed(corpus_path, workdir):
    rows = [("boom", {"train.schedule_kind": "constant",
                      "train.peak_lr": "1e25"})]
    results, table = run_ablation(base_cfg(), rows, corpus_path, workdir)
    assert results[0].status == "failed"
    assert "failed" in table


def test_ablation_table_renders_missing_values():
    from cramlab.harness import AblationRow

    table = render_ablation_table(
        [AblationRow(name="x", final_loss=None, steps=0, tokens=0,
                     status="failed")],
        with_task=True,
    )
    assert "n/a" in table


# -- charts --------------------------------------------------------------------

def test_svg_chart_basics(tmp_path):
    out = str(tmp_path / "chart.svg")
    x = np.geomspace(1e3, 1e6, 20)
    write_svg(out, {"pre": (x, 5.0 - np.log10(x) / 3.0),
                    "post": (x, 6.0 - np.log10(x) / 4.0)})
    with open(out, encoding="utf-8") as fh:
        text = fh.read()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert ">pre</text>" in text and ">post</text>" in text
    assert "tokens (log scale)" in text


def test_svg_chart_tolerates_flat_series(tmp_path):
    out = str(tmp_path / "flat.svg")
    x = np.geomspace(10, 100, 5)
    write_svg(out, {"flat": (x, np.full(5, 2.0))})
    assert os.path.exists(out)


def test_svg_chart_rejects_nonpositive_x(tmp_path):
    with pytest.raises(ConfigurationError, match="positive"):
        write_svg(str(tmp_path / "bad.svg"),
                  {"bad": (np.array([0.0, 1.0]), np.array([1.0, 2.0]))})


# -- command line --------------------------------------------------------------

def synthetic_csv(path: str, scale: float = 1.0) -> None:
    pts = []
    for i, n in enumerate(np.geomspace(1e3, 1e6, 40)):
        pts.append(CurvePoint(step=i, tokens=int(n * scale),
                              lr=1e-3, loss=1.0 + 40.0 * float(n * scale) ** -0.4,
                              seconds=0.0))
    write_text_atomic(path, LossCurve(pts).to_csv_text())


def _unk_rate(out: str) -> float:
    line = next(ln for ln in out.splitlines() if ln.startswith("unk rate"))
    return float(line.split()[-1])


def test_cli_tokenize_train_and_prepare(corpus_path, tmp_path, capsys):
    vocab = str(tmp_path / "v.txt")
    assert cli.main(["tokenize-train", "--input", corpus_path,
                     "--set", "tokenizer.vocab_size=512", "--out", vocab]) == 0
    assert "512 tokens" in capsys.readouterr().out
    data = str(tmp_path / "d.bin")
    rc = cli.main(["prepare", "--input", corpus_path, "--vocab", vocab,
                   "--set", "pipeline.seq_len=32", "--out", data,
                   "--report", str(tmp_path / "stats.txt")])
    assert rc == 0
    assert os.path.exists(data)
    out = capsys.readouterr().out
    assert "sequences" in out
    assert os.path.exists(str(tmp_path / "stats.txt"))

    # prepare encodes with tokenizer.max_chars_per_word: at 3 every
    # longer word becomes <unk>
    cfg_path = str(tmp_path / "short.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write("pipeline.seq_len = 32\n")
    rc = cli.main(["prepare", "--config", cfg_path, "--input", corpus_path,
                   "--vocab", vocab, "--set", "tokenizer.max_chars_per_word=3",
                   "--out", str(tmp_path / "short.bin")])
    assert rc == 0
    assert _unk_rate(capsys.readouterr().out) > _unk_rate(out)


def test_cli_flags_name_no_config_field():
    # Settings reach a verb only through --config and --set. The
    # exceptions are paths: --input (tokenizer.input) and report's
    # --device, which overrides a finished run's stored report.device.
    fields = {f.name for section in RunConfig().sections().values()
              for f in dataclasses.fields(section)}
    verbs = next(a for a in cli.build_parser()._actions if a.dest == "verb").choices
    clashes = [f"{verb} {action.dest}" for verb, sub in verbs.items()
               for action in sub._actions
               if action.dest in fields and action.dest != "input"
               and (verb, action.dest) != ("report", "device")]
    assert clashes == []


def test_cli_pretrain_and_report(corpus_path, workdir, tmp_path, capsys):
    cfg_path = str(tmp_path / "run.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(render_run_config(base_cfg()))
    out = str(tmp_path / "run-cli")
    rc = cli.main(["pretrain", "--config", cfg_path, "--input", corpus_path,
                   "--workdir", workdir, "--out", out,
                   "--set", "train.budget_steps=4", "--set", "report.curve_interval=2"])
    assert rc == 0
    assert "final loss" in capsys.readouterr().out
    curve = LossCurve.from_csv(os.path.join(out, "curve.csv"))
    assert curve.points[-1].step == 4

    svg = str(tmp_path / "run.svg")
    rc = cli.main(["report", "--run-dir", out, "--svg", svg,
                   "--out", str(tmp_path / "report.txt")])
    assert rc == 0
    assert "[training]" in capsys.readouterr().out
    assert os.path.exists(svg)


def test_cli_pretrain_exit_codes(corpus_path, workdir, tmp_path, capsys):
    # no corpus input anywhere: configuration error
    assert cli.main(["pretrain", "--out", str(tmp_path / "r0"),
                     "--workdir", workdir]) == 1
    assert "configuration error" in capsys.readouterr().err

    # malformed --set: configuration error
    assert cli.main(["pretrain", "--input", corpus_path, "--set", "oops",
                     "--out", str(tmp_path / "r1"),
                     "--workdir", workdir]) == 1
    capsys.readouterr()

    # diverging run: runtime failure
    cfg_path = str(tmp_path / "boom.cfg")
    cfg = base_cfg()
    cfg.train.schedule_kind = "constant"
    cfg.train.peak_lr = 1e25
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(render_run_config(cfg))
    rc = cli.main(["pretrain", "--config", cfg_path, "--input", corpus_path,
                   "--workdir", workdir, "--out", str(tmp_path / "r2")])
    assert rc == 2
    assert "aborted" in capsys.readouterr().err


def test_cli_finetune(finished_run, prepared, task_path, capsys):
    _, art, _ = finished_run
    rc = cli.main(["finetune", "--checkpoint", art.checkpoint_path,
                   "--vocab", prepared.vocab_path, "--task", task_path,
                   "--epochs", "2", "--matthews"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "median accuracy" in out
    assert "matthews" in out


def test_cli_finetune_refuses_an_eval_file_of_blank_lines(
        finished_run, prepared, task_path, tmp_path, capsys):
    _, art, _ = finished_run
    blank = tmp_path / "blank.tsv"
    blank.write_text("\n  \n\n", encoding="utf-8")
    assert cli.main(["finetune", "--checkpoint", art.checkpoint_path,
                     "--vocab", prepared.vocab_path, "--task", task_path,
                     "--eval", str(blank), "--epochs", "1"]) == 1
    assert "empty eval task" in capsys.readouterr().err


def test_cli_zero_finetune_seeds_is_a_configuration_error(
        finished_run, prepared, corpus_path, task_path, tmp_path, capsys):
    _, art, _ = finished_run
    assert cli.main(["finetune", "--checkpoint", art.checkpoint_path,
                     "--vocab", prepared.vocab_path, "--task", task_path,
                     "--seeds", "0"]) == 1
    assert "configuration error:" in capsys.readouterr().err
    # ablate rejects it before pretraining any row
    workdir = str(tmp_path / "ablate")
    assert cli.main(["ablate", "--input", corpus_path, "--workdir", workdir,
                     "--presets", "crammed", "--task", task_path, "--seeds", "0"]) == 1
    assert "configuration error:" in capsys.readouterr().err
    assert not os.path.exists(workdir)


def test_cli_finetune_encodes_with_the_runs_max_chars_per_word(
        corpus_path, workdir, tmp_path, monkeypatch, capsys):
    cfg = base_cfg()
    cfg.tokenizer.max_chars_per_word = 5
    cfg.train.budget_steps = 2
    cfg.tokenizer.input = corpus_path
    art, _ = run_pretrain(cfg, str(tmp_path / "run-short-words"), workdir=workdir)
    vocab = prepare(cfg, corpus_path, workdir).vocab_path
    lines = read_entries(corpus_path)[:2]
    assert max(len(w) for line in lines for w in line.split()) > 5
    task = tmp_path / "task.tsv"
    task.write_text(f"{lines[0]}\t0\n{lines[1]}\t1\n", encoding="utf-8")
    seen = []
    real_finetune = harness.finetune

    def spy(model, wp, examples, *args, **kwargs):
        seen.append(encode_task_batch(wp, examples, model.config.seq_len))
        return real_finetune(model, wp, examples, *args, **kwargs)

    monkeypatch.setattr(harness, "finetune", spy)
    assert cli.main(["finetune", "--checkpoint", art.checkpoint_path, "--vocab", vocab,
                     "--task", str(task), "--epochs", "1"]) == 0
    capsys.readouterr()
    for chars in (5, TokenizerSection.max_chars_per_word):
        finetune_seeds(art.checkpoint_path, vocab, str(task), FinetuneProtocol(epochs=1), 1,
                       max_chars_per_word=chars)
    verb, run_value, default = seen
    assert np.array_equal(verb, run_value)
    # Words longer than 5 characters become <unk> only at the run's value.
    assert not np.array_equal(verb, default)


def test_cli_ablate(corpus_path, workdir, tmp_path, capsys):
    cfg_path = str(tmp_path / "base.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(render_run_config(base_cfg()))
    table_path = str(tmp_path / "table.txt")
    rc = cli.main(["ablate", "--config", cfg_path, "--input", corpus_path,
                   "--workdir", workdir, "--presets", "crammed",
                   "--out", table_path])
    assert rc == 0
    assert "crammed" in capsys.readouterr().out
    assert os.path.exists(table_path)

    assert cli.main(["ablate", "--config", cfg_path, "--input", corpus_path,
                     "--workdir", workdir, "--presets", "no_such"]) == 1
    assert "unknown preset" in capsys.readouterr().err


def test_cli_fit_scaling(finished_run, tmp_path, capsys):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    synthetic_csv(a)
    synthetic_csv(b, scale=3.0)
    svg = str(tmp_path / "fit.svg")
    rc = cli.main(["fit-scaling", "--curve", a, "--curve", b, "--svg", svg])
    assert rc == 0
    out = capsys.readouterr().out
    assert "power" not in out  # fit lines use the loss = form
    assert out.count("loss =") == 2
    assert "shift factor" in out
    assert os.path.exists(svg)

    # a 3-point curve cannot be fitted: analysis error
    _, art, _ = finished_run
    assert cli.main(["fit-scaling", "--curve", art.curve_path]) == 3
    assert "analysis error" in capsys.readouterr().err


# The readers of the text files the CLI is given, each with its encoding.
TEXT_READERS = {
    "curve": (LossCurve.from_csv, "ascii"),
    "devices": (budget.load_devices, "ascii"),
    "manifest": (ckpt.load_checkpoint, "ascii"),
    "vocab": (Vocab.load, "ascii"),
    "task": (load_task, "utf-8"),
    "config": (load_run_config, "utf-8"),
    "corpus": (read_entries, "utf-8"),
}


@pytest.mark.parametrize("reader", list(TEXT_READERS))
def test_undecodable_byte_names_the_file_and_line(tmp_path, reader):
    read, encoding = TEXT_READERS[reader]
    path = tmp_path / "file.txt"
    path.write_bytes(b"first\r\nsecond\ncaf\xe9\n")
    with pytest.raises(ContractError) as info:
        read(str(path))
    assert str(info.value) == f"{path}:3: byte 0xe9 is not {encoding} text"


def test_cli_config_error_names_the_file_and_line(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("train.seed = 1\ntrain.micro_batch = many\n", encoding="utf-8")
    assert cli.main(["pretrain", "--config", str(config), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: {config}: line 2: train.micro_batch: not an integer: 'many'\n")


def test_cli_malformed_run_files_are_runtime_errors(finished_run, prepared, task_path,
                                                    tmp_path, capsys):
    curve = tmp_path / "bad.csv"
    curve.write_text("step,tokens,lr,loss,seconds\n0,0,0.0,6.0\n")
    assert cli.main(["fit-scaling", "--curve", str(curve)]) == 2
    assert f"runtime error: {curve}:2: malformed curve row" in capsys.readouterr().err
    curve.write_bytes(b"step,tokens,lr,loss,seconds\n0,0,0.0,6.\xe9,0.0\n")
    assert cli.main(["fit-scaling", "--curve", str(curve)]) == 2
    assert f"runtime error: {curve}:2: byte 0xe9" in capsys.readouterr().err
    config = tmp_path / "bad.txt"
    config.write_bytes(b"train.seed = 1 # caf\xe9\n")
    assert cli.main(["pretrain", "--config", str(config), "--out", str(tmp_path / "r")]) == 2
    assert f"runtime error: {config}:1: byte 0xe9" in capsys.readouterr().err
    # a manifest tensor line without its offset
    _, art, _ = finished_run
    with open(art.checkpoint_path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    n = next(i for i, ln in enumerate(lines) if ln.startswith("tensor "))
    lines[n] = lines[n].rsplit(" ", 1)[0]
    manifest = tmp_path / "checkpoint"
    manifest.write_text("\n".join(lines) + "\n", encoding="ascii")
    assert cli.main(["finetune", "--checkpoint", str(manifest), "--vocab", prepared.vocab_path,
                     "--task", task_path]) == 2
    assert (f"runtime error: {manifest}:{n + 1}: malformed manifest line"
            in capsys.readouterr().err)


def test_cli_fit_scaling_svg_of_real_run(prepared, workdir, tmp_path, capsys):
    # a real curve starts with the step-0 point at zero tokens
    cfg = base_cfg()
    cfg.train.budget_steps = 24
    cfg.report.curve_interval = 1
    art, result = run_pretrain(cfg, str(tmp_path / "run-fit"), data=prepared)
    assert not result.aborted
    assert LossCurve.from_csv(art.curve_path).points[0].tokens == 0

    assert cli.main(["fit-scaling", "--curve", art.curve_path]) == 0
    fit_lines = capsys.readouterr().out
    svg = str(tmp_path / "fit.svg")
    rc = cli.main(["fit-scaling", "--curve", art.curve_path, "--svg", svg])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == fit_lines + f"wrote chart -> {svg}\n"
    assert os.path.exists(svg)


# Run in a fresh interpreter: training, the report's power-law fit and
# the fit-scaling command, after which sys.modules must hold no scipy.
NUMPY_ONLY_SCRIPT = textwrap.dedent("""
    import sys
    import cramlab
    from cramlab import cli, harness
    from cramlab.config import load_run_config

    config_path, run_dir, workdir = sys.argv[1:]
    art, result = harness.run_pretrain(load_run_config(config_path), run_dir, workdir=workdir)
    assert not result.aborted
    with open(art.report_path, encoding="utf-8") as fh:
        assert "power law: loss =" in fh.read()
    assert cli.main(["fit-scaling", "--curve", art.curve_path]) == 0
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")


def test_training_and_fits_import_numpy_only(corpus_path, prepared, workdir, tmp_path):
    cfg = base_cfg()
    cfg.tokenizer.input = corpus_path
    cfg.train.budget_steps = 16
    cfg.report.curve_interval = 1
    config_path = tmp_path / "run.txt"
    config_path.write_text(render_run_config(cfg), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_SCRIPT, str(config_path),
         str(tmp_path / "run"), workdir],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_report_svg_of_aborted_run(prepared, tmp_path, capsys):
    cfg = base_cfg()
    cfg.train.schedule_kind = "constant"
    cfg.train.peak_lr = 1e25
    art, result = run_pretrain(cfg, str(tmp_path / "boom"), data=prepared)
    assert result.aborted
    # The aborted run charts the steps it completed.
    svg = str(tmp_path / "boom.svg")
    assert cli.main(["report", "--run-dir", art.run_dir, "--svg", svg]) == 0
    assert os.path.exists(svg)
    # A run that completed no step has nothing to chart.
    cfg.train.budget_steps = 0
    art, result = run_pretrain(cfg, str(tmp_path / "empty"), data=prepared)
    svg = str(tmp_path / "empty.svg")
    capsys.readouterr()
    assert cli.main(["report", "--run-dir", art.run_dir, "--svg", svg]) == 1
    assert "no point after step 0 to chart" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["timing", "inputs", "workloads", "layers"])
def test_benchmark_modules_import(module, monkeypatch):
    # The benchmark imports cramlab names directly; dropping one of them
    # must fail here, not only when the benchmark runs.
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "cramlab_bench")
    monkeypatch.syspath_prepend(bench)
    for name in ("timing", "inputs", "workloads", "layers"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    importlib.import_module(module)
