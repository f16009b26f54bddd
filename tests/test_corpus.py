"""Curation pipeline tests: filter arithmetic, dedup against a naive
quadratic reference, packing, prevalence sort, stats, binary format."""

import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from cramlab.corpus import (
    ID_DTYPE, PackedDataset, PipelineConfig, RawEntry, TokenizedEntry,
    compression_filter, corpus_stats, curate, dedup_exact, load_dataset,
    pack, save_dataset, sort_by_prevalence,
)
from cramlab.errors import ConfigurationError, ContractError
from cramlab.tokenizer import SEP_ID, SPECIAL_TOKENS, Vocab


def entry(ids, source_index=0):
    return TokenizedEntry.from_ids(ids, source_index)


@pytest.mark.parametrize("kind", ["int64", "uint16", "list"])
def test_from_ids_keeps_ids_exact(kind):
    ids = [5, 6, 65535, 9]
    given = {"int64": np.asarray(ids, dtype=np.int64),
             "uint16": np.asarray(ids, dtype=np.uint16), "list": ids}[kind]
    got = TokenizedEntry.from_ids(given, 3)
    assert list(got.ids) == ids
    assert all(type(i) is int for i in got.ids)
    # Entries compare by value whatever form their ids came in, and numpy
    # reads the ids as they are stored.
    assert got == TokenizedEntry.from_ids(ids, 3)
    assert got != TokenizedEntry.from_ids(ids[:-1], 3)
    assert np.frombuffer(got.ids, np.int64).tolist() == ids


# -- compression filter --------------------------------------------------------

def test_filter_arithmetic_at_threshold():
    """At t=0.3 and 100 chars the budget is 30 tokens, inclusive."""
    raw = RawEntry(text="x" * 100, char_count=100)
    assert not compression_filter(entry([1] * 35), raw, 0.3)
    assert compression_filter(entry([1] * 30), raw, 0.3)
    assert compression_filter(entry([1] * 25), raw, 0.3)


def test_filter_drops_zero_char_entries():
    assert not compression_filter(entry([]), RawEntry("", 0), 0.3)


def test_filter_separates_tag_soup_from_plain_text(wp_small, lexicon):
    clean = [w for w in lexicon if 0 not in wp_small.encode(w)]
    rng = np.random.default_rng(300)
    plain = [" ".join(rng.choice(clean, size=12)) for _ in range(40)]
    soup = [
        "<div class=\"r%d\"><span id=\"x%d\">%s</span></div>" % (i, i, w)
        for i, w in enumerate(rng.choice(clean, size=40))
    ]
    def kept(texts):
        n = 0
        for t in texts:
            ids = wp_small.encode(t)
            n += compression_filter(entry(ids), RawEntry(t, len(t)), 0.3)
        return n
    assert kept(soup) == 0
    assert kept(plain) >= 38  # >= 95%


# -- deduplication -------------------------------------------------------------

def naive_dedup(entries, L):
    """Quadratic reference: corpus-order scan, any window equal to one
    seen at an earlier position is excised; pieces survive in order."""
    seen = set()
    covered = []
    for e in entries:
        cov = [False] * e.token_count
        for j in range(e.token_count - L + 1):
            key = tuple(e.ids[j:j + L])
            if key in seen:
                for p in range(j, j + L):
                    cov[p] = True
            else:
                seen.add(key)
        covered.append(cov)
    out = []
    for e, cov in zip(entries, covered):
        run = []
        for idx in range(e.token_count + 1):
            cut = idx == e.token_count or cov[idx]
            if cut:
                if run:
                    out.append(TokenizedEntry.from_ids(run, e.source_index))
                    run = []
            else:
                run.append(e.ids[idx])
    return out


def same_entries(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert list(x.ids) == list(y.ids) and x.source_index == y.source_index


def test_dedup_removes_exact_copy_keeps_first():
    span = list(range(50, 58))
    first = entry(span, 0)
    second = entry([1, 2] + span + [3], 1)
    out = dedup_exact([first, second], L=4)
    assert list(out[0].ids) == span
    assert [list(e.ids) for e in out[1:]] == [[1, 2], [3]]
    assert all(e.source_index == 1 for e in out[1:])


def test_dedup_excises_long_span_entirely():
    # every length-4 window of the repeated length-7 span repeats,
    # so the whole span goes
    span = [9, 8, 7, 6, 5, 4, 3]
    out = dedup_exact([entry(span), entry(span, 1)], L=4)
    assert [list(e.ids) for e in out] == [span]


def test_dedup_ignores_spans_crossing_entry_boundaries():
    # [3,4]+[5,6] adjacency exists only across the boundary
    out = dedup_exact([entry([3, 4]), entry([5, 6]), entry([4, 5], 2)], L=2)
    assert [list(e.ids) for e in out] == [[3, 4], [5, 6], [4, 5]]


def test_dedup_overlapping_repeats_within_entry():
    # windows at 1 and 2 both match the window at 0, so their union
    # (positions 1..3) is excised even though it overlaps the original
    out = dedup_exact([entry([7, 7, 7, 7])], L=2)
    assert [list(e.ids) for e in out] == [[7]]


def test_dedup_below_threshold_untouched():
    entries = [entry([1, 2, 3], 0), entry([1, 2, 4], 1)]
    out = dedup_exact(entries, L=3)
    same_entries(out, entries)


def test_dedup_requires_threshold_at_least_two():
    with pytest.raises(ConfigurationError):
        dedup_exact([entry([1, 2])], L=1)


@pytest.mark.parametrize("L", [2, 3, 5, 8])
def test_dedup_matches_naive_reference(L):
    rng = np.random.default_rng(310 + L)
    entries = []
    for i in range(60):
        n = int(rng.integers(1, 80))
        entries.append(entry(rng.integers(0, 6, size=n).tolist(), i))
    same_entries(dedup_exact(entries, L), naive_dedup(entries, L))


def test_dedup_matches_naive_on_structured_repeats():
    rng = np.random.default_rng(320)
    motif = rng.integers(0, 100, size=30).tolist()
    entries = []
    for i in range(40):
        pre = rng.integers(0, 100, size=int(rng.integers(0, 20))).tolist()
        post = rng.integers(0, 100, size=int(rng.integers(0, 20))).tolist()
        body = motif if i % 3 == 0 else rng.integers(0, 100, size=30).tolist()
        entries.append(entry(pre + body + post, i))
    for L in (4, 16, 30):
        same_entries(dedup_exact(entries, L), naive_dedup(entries, L))


# -- packing -------------------------------------------------------------------

def test_pack_single_entry_chunks_in_order():
    ids = list(range(5, 265))
    ds = pack([entry(ids)], S=128, seed=0, vocab_size=512)
    assert ds.sequence_count == 2
    assert ds.sequences.ravel().tolist() == ids[:256]


def test_pack_joins_with_sep_and_drops_remainder():
    a, b = entry([10] * 100, 0), entry([11] * 80, 1)
    ds = pack([a, b], S=128, seed=7, vocab_size=16)
    assert ds.sequence_count == 1
    row = ds.sequences[0]
    # 181-token stream (100 + sep + 80), one 128-row, 53 dropped
    perm = np.random.default_rng(7).permutation(2)
    first = [10] * 100 if perm[0] == 0 else [11] * 80
    second = [11] * 80 if perm[0] == 0 else [10] * 100
    expect = (first + [SEP_ID] + second)[:128]
    assert row.tolist() == expect
    assert int(ds.unigram_counts.sum()) == 128


def test_pack_counts_match_bincount():
    rng = np.random.default_rng(330)
    entries = [entry(rng.integers(0, 40, size=50).tolist(), i) for i in range(20)]
    ds = pack(entries, S=64, seed=3, vocab_size=40)
    expect = np.bincount(ds.sequences.ravel(), minlength=40)
    assert np.array_equal(ds.unigram_counts, expect)


def test_pack_insufficient_tokens_rejected():
    with pytest.raises(ConfigurationError):
        pack([entry([1] * 50)], S=128, seed=0, vocab_size=8)
    with pytest.raises(ConfigurationError):
        pack([], S=128, seed=0, vocab_size=8)


def test_pack_deterministic_by_seed():
    rng = np.random.default_rng(331)
    rows = [rng.integers(0, 9, size=30) for _ in range(30)]
    entries = [entry(r.tolist(), i) for i, r in enumerate(rows)]
    a = pack(entries, S=32, seed=5, vocab_size=9)
    b = pack(entries, S=32, seed=5, vocab_size=9)
    c = pack(entries, S=32, seed=6, vocab_size=9)
    assert np.array_equal(a.sequences, b.sequences)
    assert not np.array_equal(a.sequences, c.sequences)
    # Ids given as int64 or uint16 arrays pack to the same matrix as lists.
    for dtype in (np.int64, np.uint16):
        d = pack([entry(r.astype(dtype), i) for i, r in enumerate(rows)],
                 S=32, seed=5, vocab_size=9)
        assert d.sequences.dtype == ID_DTYPE and np.array_equal(d.sequences, a.sequences)


@pytest.mark.parametrize("bad", [70000, -1, 9000])
def test_pack_refuses_an_id_outside_the_vocabulary(bad):
    # 70000 and -1 do not fit uint16 either, so a cast would wrap them.
    with pytest.raises(ContractError, match=f"token id {bad} outside"):
        pack([entry([5] * 8), entry([6, bad, 7], 1)], S=4, seed=0, vocab_size=8192)


# -- prevalence sort -----------------------------------------------------------

def test_sort_matches_brute_force():
    rng = np.random.default_rng(340)
    seqs = rng.integers(0, 50, size=(100, 16)).astype(np.int32)
    counts = np.bincount(seqs.ravel(), minlength=50).astype(np.int64)
    ds = PackedDataset(seqs, 50)
    got = sort_by_prevalence(ds)
    logp = np.log(counts / counts.sum())
    scores = logp[seqs].mean(axis=1)
    order = np.argsort(-scores, kind="stable")
    assert np.array_equal(got.sequences, seqs[order])
    assert np.array_equal(got.unigram_counts, counts)


def test_sort_descending_and_stable_on_ties():
    # rows 1 and 2 are permutations of each other: equal score, original
    # relative order must survive
    seqs = np.array([[3, 3], [1, 2], [2, 1], [3, 1]], np.int32)
    counts = np.bincount(seqs.ravel(), minlength=4).astype(np.int64)
    ds = sort_by_prevalence(PackedDataset(seqs, 4))
    with np.errstate(divide="ignore"):
        scores = np.log(counts / counts.sum())[ds.sequences].mean(axis=1)
    assert (np.diff(scores) <= 1e-15).all()
    rows = [r.tolist() for r in ds.sequences]
    assert rows.index([1, 2]) < rows.index([2, 1])


def test_sort_idempotent():
    rng = np.random.default_rng(341)
    seqs = rng.integers(0, 12, size=(40, 8)).astype(np.int32)
    once = sort_by_prevalence(PackedDataset(seqs, 12))
    twice = sort_by_prevalence(once)
    assert np.array_equal(once.sequences, twice.sequences)


def test_sort_scores_rows_in_blocks():
    # Scoring and counting by row blocks: the float64 log-probabilities
    # of every id, or an intp copy of them, would be 4x and 8x the ids.
    rng = np.random.default_rng(342)
    seqs = rng.integers(0, 8192, size=(20000, 128)).astype(ID_DTYPE)
    ds = PackedDataset(seqs, 8192)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = sort_by_prevalence(ds)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 2 * seqs.nbytes
    logp = np.log(np.bincount(seqs.ravel(), minlength=8192) / seqs.size)
    order = np.argsort(-logp[seqs].mean(axis=1), kind="stable")
    assert got.sequences.dtype == ID_DTYPE
    assert np.array_equal(got.sequences, seqs[order])


# -- stats ---------------------------------------------------------------------

def test_stats_uniform_entropy():
    seqs = np.tile(np.arange(1, 9, dtype=np.int32), (4, 1))
    ds = PackedDataset(seqs, 9)
    rep = corpus_stats(ds)
    assert abs(rep.unigram_entropy - np.log(8)) < 1e-12
    assert rep.unk_rate == 0.0
    assert rep.sequence_count == 4 and rep.token_count == 32


def test_stats_degenerate_and_unk():
    seqs = np.zeros((2, 4), np.int32)
    ds = PackedDataset(seqs, 5)
    rep = corpus_stats(ds)
    assert rep.unigram_entropy == 0.0
    assert rep.unk_rate == 1.0  # id 0 is <unk>


def test_stats_report_text_includes_ratio_only_when_given():
    seqs = np.zeros((1, 4), np.int32)
    ds = PackedDataset(seqs, 2)
    assert "tokens per char" not in corpus_stats(ds).to_text()
    assert "tokens per char" in corpus_stats(ds, 0.25).to_text()


# -- config validation ---------------------------------------------------------

def test_pipeline_config_validation():
    PipelineConfig(t=None, dedup_min_len=None).validate()
    PipelineConfig(t=0.3, dedup_min_len=2).validate()
    with pytest.raises(ConfigurationError):
        PipelineConfig(t=0.0).validate()
    with pytest.raises(ConfigurationError):
        PipelineConfig(dedup_min_len=1).validate()
    with pytest.raises(ConfigurationError):
        PipelineConfig(seq_len=1).validate()


# -- end to end ----------------------------------------------------------------

def test_curate_report_accounting(wp_small, lexicon):
    clean = [w for w in lexicon if 0 not in wp_small.encode(w)]
    rng = np.random.default_rng(350)
    texts = [" ".join(rng.choice(clean, size=20)) for _ in range(60)]
    texts += ["", "   "]                       # dropped as empty
    texts += ["<a><b><c><d><e><f></a></b>"]    # dropped by filter
    texts += [texts[0]]                        # duplicate of the first entry
    cfg = PipelineConfig(t=0.3, dedup_min_len=8, sort=True, seq_len=32)
    ds, rep = curate(texts, wp_small, cfg)
    assert rep.entries_in == 64
    assert rep.dropped_empty == 2
    assert rep.dropped_filter == 1
    assert rep.entries_after_filter == 61
    assert rep.tokens_after_dedup < rep.tokens_before_dedup
    assert rep.stats is not None
    assert ds.seq_len == 32
    ds.validate()


def test_curated_bytes_are_pinned(wp_noisy, noisy_corpus):
    # With every stage on, over text that normalize changes and with
    # repeated lines for dedup to excise.
    cfg = PipelineConfig(t=0.3, dedup_min_len=8, sort=True, seq_len=32)
    ds, rep = curate(noisy_corpus, wp_noisy, cfg)
    assert rep.tokens_after_dedup < rep.tokens_before_dedup
    assert hashlib.sha256(ds.sequences.tobytes()).hexdigest() == \
        "29c3f856d2f880cf452093ad0ddefa3cf3d4e721d22611bf2faace10b3387faf"
    assert hashlib.sha256(rep.to_text().encode()).hexdigest() == \
        "9aa8160fe10cc46b5169190af159f9c409abf0ad6f10f9708c34202fe17084b5"


def test_curate_without_optional_stages(wp_small, lexicon):
    clean = [w for w in lexicon if 0 not in wp_small.encode(w)]
    rng = np.random.default_rng(351)
    texts = [" ".join(rng.choice(clean, size=20)) for _ in range(40)]
    cfg = PipelineConfig(t=None, dedup_min_len=None, sort=False, seq_len=32)
    ds, rep = curate(texts, wp_small, cfg)
    assert rep.dropped_filter == 0
    assert rep.tokens_before_dedup == rep.tokens_after_dedup
    assert rep.entries_after_dedup == 40
    # packing only ever loses the sub-sequence-length remainder
    assert 0 <= rep.tokens_after_dedup + 39 - ds.token_count < 32


# -- binary format -------------------------------------------------------------

def make_ds(rng, n=20, s=16, vocab=300):
    seqs = rng.integers(0, vocab, size=(n, s)).astype(np.uint16)
    return PackedDataset(seqs, vocab)


def test_dataset_round_trip(tmp_path):
    ds = make_ds(np.random.default_rng(360))
    path = str(tmp_path / "d.bin")
    save_dataset(path, ds)
    back = load_dataset(path)
    assert np.array_equal(back.sequences, ds.sequences)
    assert back.sequences.dtype == np.uint16
    assert back.seq_len == ds.seq_len and back.vocab_size == ds.vocab_size
    assert np.array_equal(back.unigram_counts, ds.unigram_counts)


def test_failed_save_leaves_previous_file_intact(tmp_path, monkeypatch):
    data_path, vocab_path = tmp_path / "d.bin", tmp_path / "vocab.txt"
    save_dataset(str(data_path), make_ds(np.random.default_rng(362)))
    Vocab(list(SPECIAL_TOKENS) + ["a", "b"]).save(str(vocab_path))
    before = data_path.read_bytes(), vocab_path.read_bytes()

    def crash(src, dst):
        raise OSError("simulated crash before rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated crash"):
        save_dataset(str(data_path), make_ds(np.random.default_rng(363)))
    with pytest.raises(OSError, match="simulated crash"):
        Vocab(list(SPECIAL_TOKENS) + ["c"]).save(str(vocab_path))
    assert (data_path.read_bytes(), vocab_path.read_bytes()) == before
    monkeypatch.undo()
    assert load_dataset(str(data_path)).sequence_count > 0
    assert Vocab.load(str(vocab_path)).tokens[5:] == ["a", "b"]


def test_dataset_bytes_deterministic(tmp_path):
    ds = make_ds(np.random.default_rng(361))
    save_dataset(str(tmp_path / "a.bin"), ds)
    save_dataset(str(tmp_path / "b.bin"), ds)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_dataset_rejects_wide_vocab():
    with pytest.raises(ConfigurationError, match="65537"):
        pack([entry([1] * 8)], S=4, seed=0, vocab_size=65537)
    assert pack([entry([65535] * 8)], S=4, seed=0, vocab_size=65536).sequences.max() == 65535


def test_load_dataset_maps_the_file_read_only(tmp_path):
    ds = make_ds(np.random.default_rng(364))
    path = str(tmp_path / "d.bin")
    save_dataset(path, ds)
    back = load_dataset(path)
    # The ids are the file's pages, not a copy: a write fails, and a
    # change to the file shows through.
    assert isinstance(back.sequences, np.memmap)
    assert back.sequences.filename == os.path.abspath(path)
    assert not back.sequences.flags.writeable
    with pytest.raises(ValueError):
        back.sequences[0, 0] = 1
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) - 2)
        fh.write(np.uint16(7).tobytes())
    assert back.sequences[-1, -1] == 7


def test_dataset_load_rejects_corruption(tmp_path):
    import struct as _s
    ds = make_ds(np.random.default_rng(362))
    path = tmp_path / "d.bin"
    save_dataset(str(path), ds)
    blob = path.read_bytes()
    for name, bad in [
        ("m.bin", b"JUNK" + blob[4:]),
        ("t.bin", blob[:-3]),
        ("v.bin", blob[:4] + _s.pack("<I", 99) + blob[8:]),
    ]:
        (tmp_path / name).write_bytes(bad)
        with pytest.raises(ContractError):
            load_dataset(str(tmp_path / name))


@pytest.mark.parametrize("sequences, message", [
    (np.zeros(16, np.uint16), "sequences must be a 2-D uint16 id matrix"),
    (np.zeros((2, 8), np.int32), "sequences must be a 2-D uint16 id matrix"),
    (np.full((2, 8), 300, np.uint16), "token id outside vocab_size"),
], ids=["1-D", "int32", "id-range"])
def test_save_dataset_refuses_an_invalid_dataset(tmp_path, sequences, message):
    with pytest.raises(ContractError) as info:
        save_dataset(str(tmp_path / "d.bin"), PackedDataset(sequences, 300))
    assert str(info.value) == message
    assert list(tmp_path.iterdir()) == []
