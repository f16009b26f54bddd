"""WordPiece: normalization rules, training score arithmetic, greedy
segmentation, round trips, determinism."""

import hashlib
import unicodedata

import numpy as np
import pytest

from cramlab import tokenizer
from cramlab.errors import ConfigurationError
from cramlab.tokenizer import (
    CLS_ID, MASK_ID, PAD_ID, SEP_ID, SPECIAL_TOKENS, UNK_ID, Vocab,
    WordPieceModel, normalize, pre_tokenize, train_wordpiece,
)
import reference_text
from conftest import make_sentences


def test_special_token_ids_are_fixed():
    assert SPECIAL_TOKENS == ("<unk>", "<sep>", "<mask>", "<cls>", "<pad>")
    assert (UNK_ID, SEP_ID, MASK_ID, CLS_ID, PAD_ID) == (0, 1, 2, 3, 4)


# -- normalization ------------------------------------------------------------

def test_normalize_lowercase_and_whitespace():
    assert normalize("Héllo  World") == "hello world"
    assert normalize("ABC") == "abc"


def test_normalize_drops_non_ascii():
    assert normalize("naïve café — 你好") == "naive cafe"


def test_every_combining_mark_lies_above_ascii():
    # normalize drops the accents NFD splits off by its ASCII filter alone.
    assert min(cp for cp in range(0x110000) if unicodedata.combining(chr(cp))) > 0x7E


ALL_CODE_POINTS = "".join(map(chr, range(0x110000)))


@pytest.mark.parametrize("sep", ["", " ", "x"], ids=["joined", "spaced", "between-letters"])
def test_normalize_matches_the_reference_on_every_code_point(sep):
    text = sep.join(ALL_CODE_POINTS)
    assert normalize(text) == reference_text.normalize(text)


def test_pre_tokenize_matches_the_reference_on_every_code_point():
    # Between letters, each code point either joins the letters' run or
    # stands alone, so the split shows how every one is classified.
    text = "x".join(ALL_CODE_POINTS)
    assert pre_tokenize(text) == reference_text.pre_tokenize(text)


def test_text_rules_match_the_reference_on_random_text():
    pool = [chr(c) for c in [*range(0x80), *range(0xA0, 0x100), *range(0x300, 0x370),
                             *range(0x4E00, 0x4E40)]]
    rng = np.random.default_rng(30)
    for _ in range(300):
        text = "".join(rng.choice(pool, size=rng.integers(0, 40)))
        norm = normalize(text)
        assert norm == reference_text.normalize(text)
        assert pre_tokenize(text) == reference_text.pre_tokenize(text)
        assert pre_tokenize(norm) == reference_text.pre_tokenize(norm)


def test_normalize_empty_permitted():
    assert normalize("你好") == ""
    assert normalize("   ") == ""


def test_pre_tokenize_splits_punctuation_to_single_chars():
    assert pre_tokenize("don't stop-me now") == [
        "don", "'", "t", "stop", "-", "me", "now"
    ]
    assert pre_tokenize("abc123") == ["abc123"]
    assert pre_tokenize("") == []


# -- training -----------------------------------------------------------------

def test_train_single_letter_corpus_merge_sequence():
    # "aaa aaa": alphabet {a}; the only scored pairs are (a,##a) with
    # score 2/(2*4) and (##a,##a) with 2/(4*4), so "aa" is merged first
    # and fills the last vocabulary slot.
    wp = train_wordpiece(["aaa aaa"], vocab_size=len(SPECIAL_TOKENS) + 2)
    assert wp.vocab.tokens == list(SPECIAL_TOKENS) + ["a", "aa"]


def test_train_alphabet_only_boundary():
    wp = train_wordpiece(["abc cba bac"], vocab_size=len(SPECIAL_TOKENS) + 3)
    assert sorted(wp.vocab.tokens[len(SPECIAL_TOKENS):]) == ["a", "b", "c"]


def test_train_vocab_too_small_rejected():
    with pytest.raises(ConfigurationError):
        train_wordpiece(["abc"], vocab_size=len(SPECIAL_TOKENS) + 2)


def test_train_empty_corpus_rejected():
    with pytest.raises(ConfigurationError):
        train_wordpiece(["", "   "], vocab_size=32)


def test_train_reports_shortfall():
    with pytest.warns(UserWarning):
        wp = train_wordpiece(["ab ab"], vocab_size=64)
    assert len(wp.vocab) < 64


def test_train_exact_size_and_determinism(small_corpus):
    a = train_wordpiece(small_corpus, vocab_size=512)
    b = train_wordpiece(list(small_corpus), vocab_size=512)
    assert len(a.vocab) == 512
    assert a.vocab.tokens == b.vocab.tokens


def test_vocabulary_bytes_are_pinned(wp_noisy):
    # The merge order over a corpus with accents, capitals, punctuation,
    # tabs, DEL and non-ASCII words; a change to any text rule or to the
    # merge bookkeeping moves this digest.
    digest = hashlib.sha256("\n".join(wp_noisy.vocab.tokens).encode()).hexdigest()
    assert len(wp_noisy.vocab) == 1024
    assert digest == "c4ceef21c4181dd673e8c320d54d22d6d76c5691e8f8ed4b502de9c743274ff6"


def test_pair_table_growth_and_compaction_keep_the_vocabulary(monkeypatch, small_corpus,
                                                              wp_small):
    # A tiny table and cadence make the small corpus grow the pair table
    # and compact it, which the default sizes never do at this scale.
    monkeypatch.setattr(tokenizer, "PAIR_TABLE_CAPACITY", 16)
    monkeypatch.setattr(tokenizer, "COMPACT_EVERY", 8)
    table = tokenizer._PairTable
    pid, compact = table.pid, table.compact
    calls = {"grow": 0, "compact": 0}

    def counting_pid(self, l, r):
        cap = self.count.size
        got = pid(self, l, r)
        calls["grow"] += self.count.size > cap
        return got

    def counting_compact(self):
        calls["compact"] += 1
        compact(self)

    monkeypatch.setattr(table, "pid", counting_pid)
    monkeypatch.setattr(table, "compact", counting_compact)
    compacted = train_wordpiece(small_corpus, vocab_size=1024)
    assert calls["grow"] >= 2 and calls["compact"] >= 2, calls
    monkeypatch.setattr(table, "compact", lambda self: None)
    uncompacted = train_wordpiece(small_corpus, vocab_size=1024)
    assert compacted.vocab.tokens == uncompacted.vocab.tokens == wp_small.vocab.tokens


# -- encoding -----------------------------------------------------------------

def hand_vocab():
    extra = ["un", "##aff", "##able", "hot", "##s"]
    chars = [c for c in "abcdefhilnostu"]
    return Vocab(list(SPECIAL_TOKENS) + extra + chars)


def test_encode_greedy_longest_match():
    wp = WordPieceModel(hand_vocab())
    assert [wp.vocab.tokens[i] for i in wp.encode("unaffable")] == [
        "un", "##aff", "##able"
    ]


def test_encode_unknown_character_word_is_unk():
    wp = WordPieceModel(hand_vocab())
    assert wp.encode("qqq") == [UNK_ID]


def test_encode_empty_string():
    wp = WordPieceModel(hand_vocab())
    assert wp.encode("") == []


def test_encode_overlong_word_is_unk():
    wp = WordPieceModel(hand_vocab(), max_chars_per_word=4)
    assert wp.encode("unaffable") == [UNK_ID]
    assert wp.encode("hots") != [UNK_ID]


def test_encode_word_without_continuation_piece_is_unk():
    # "hott": "hot" matches but no "##t" exists, and no shorter prefix
    # segmentation covers the tail either.
    wp = WordPieceModel(hand_vocab())
    assert wp.encode("hott") == [UNK_ID]


def test_decode_inverts_continuation_prefixes():
    wp = WordPieceModel(hand_vocab())
    ids = [wp.vocab.token_to_id[t] for t in ("un", "##aff", "##able")]
    assert wp.decode(ids) == "unaffable"
    assert wp.decode([]) == ""


def test_decode_invalid_id():
    wp = WordPieceModel(hand_vocab())
    with pytest.raises(IndexError):
        wp.decode([10 ** 6])


def test_round_trip_on_generated_sentences(wp_small, lexicon):
    # The small training vocabulary covers only part of the lexicon, so
    # build sentences from words it can segment without <unk>.
    clean = [w for w in lexicon if UNK_ID not in wp_small.encode(w)]
    assert len(clean) >= 100
    rng = np.random.default_rng(200)
    sentences = make_sentences(rng, clean, 200)
    for s in sentences:
        norm = normalize(s)
        ids = wp_small.encode(norm)
        assert UNK_ID not in ids
        assert wp_small.decode(ids) == norm


def test_encode_never_fails_on_arbitrary_text(wp_small):
    rng = np.random.default_rng(201)
    for _ in range(50):
        chars = rng.integers(32, 127, size=rng.integers(0, 60))
        text = normalize("".join(map(chr, chars)))
        ids = wp_small.encode(text)
        assert all(0 <= i < len(wp_small.vocab) for i in ids)


# -- vocabulary file ----------------------------------------------------------

def test_vocab_file_round_trip(tmp_path, wp_small):
    path = str(tmp_path / "vocab.txt")
    wp_small.vocab.save(path)
    loaded = Vocab.load(path)
    assert loaded.tokens == wp_small.vocab.tokens


def test_vocab_requires_specials_first():
    with pytest.raises(ConfigurationError):
        Vocab(["a"] + list(SPECIAL_TOKENS))


def test_vocab_rejects_duplicates():
    with pytest.raises(ConfigurationError):
        Vocab(list(SPECIAL_TOKENS) + ["a", "a"])
