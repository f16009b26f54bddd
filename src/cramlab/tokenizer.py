"""Text normalization and WordPiece vocabulary training/encoding.

Normalization lower-cases, strips accents via NFD decomposition, drops
every remaining non-ASCII character and collapses whitespace. Word
boundaries are whitespace after normalization, with punctuation split
into single-character words; alphanumeric runs stay together.

Training is iterative pair merging: at each round the adjacent symbol
pair maximizing pair_count / (left_count * right_count) is merged into
a new vocabulary entry, ties broken lexicographically by the
(left, right) strings. Encoding is greedy longest-match-first with the
"##" continuation prefix; a word that cannot be segmented (or is longer
than max_chars_per_word) becomes <unk>.
"""

from __future__ import annotations

import unicodedata
import warnings
from collections import Counter
from typing import Iterable

import numpy as np

from .errors import ConfigurationError
from .serde import committed, read_text

UNK, SEP, MASK, CLS, PAD = "<unk>", "<sep>", "<mask>", "<cls>", "<pad>"
SPECIAL_TOKENS = (UNK, SEP, MASK, CLS, PAD)
UNK_ID, SEP_ID, MASK_ID, CLS_ID, PAD_ID = range(5)
CONTINUATION_PREFIX = "##"


def normalize(text: str) -> str:
    out = []
    for ch in unicodedata.normalize("NFD", text.lower()):
        if unicodedata.combining(ch):
            continue
        if ord(ch) > 126:
            continue
        out.append(ch)
    return " ".join("".join(out).split())


def pre_tokenize(normalized: str) -> list[str]:
    """Split normalized text into words: alnum runs and single punctuation."""
    words = []
    for chunk in normalized.split(" "):
        run = []
        for ch in chunk:
            if ch.isalnum():
                run.append(ch)
            else:
                if run:
                    words.append("".join(run))
                    run = []
                words.append(ch)
        if run:
            words.append("".join(run))
    return [w for w in words if w]


class Vocab:
    """Ordered token list with the five specials at ids 0..4."""

    def __init__(self, tokens: list[str]):
        if tokens[:5] != list(SPECIAL_TOKENS):
            raise ConfigurationError("vocabulary must start with the special tokens")
        seen = set()
        for tok in tokens:
            if tok in seen:
                raise ConfigurationError(f"duplicate token {tok!r}")
            seen.add(tok)
        for tok in tokens[5:]:
            if not tok:
                raise ConfigurationError("empty token")
            if normalize(tok) != tok:
                raise ConfigurationError(f"token {tok!r} does not survive normalization")
        self.tokens = list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(tokens)}
        self.max_token_chars = max(len(t) for t in tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def save(self, path: str) -> None:
        with committed(path) as fh:
            fh.write(("\n".join(self.tokens) + "\n").encode("ascii"))

    @classmethod
    def load(cls, path: str) -> "Vocab":
        return cls([ln for ln in read_text(path, "ascii").split("\n") if ln])


class WordPieceModel:
    def __init__(self, vocab: Vocab, max_chars_per_word: int = 100):
        if max_chars_per_word < 1:
            raise ConfigurationError("max_chars_per_word must be positive")
        self.vocab = vocab
        self.max_chars_per_word = max_chars_per_word
        self._word_cache: dict[str, list[int]] = {}

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def encode(self, text: str) -> list[int]:
        return self.encode_normalized(normalize(text))

    def encode_normalized(self, normalized: str) -> list[int]:
        """Ids of text that has already been through normalize()."""
        ids: list[int] = []
        cache = self._word_cache
        for word in pre_tokenize(normalized):
            got = cache.get(word)
            if got is None:
                got = self._encode_word(word)
                if len(cache) < 1_000_000:
                    cache[word] = got
            ids.extend(got)
        return ids

    def _encode_word(self, word: str) -> list[int]:
        if len(word) > self.max_chars_per_word:
            return [UNK_ID]
        table = self.vocab.token_to_id
        longest = self.vocab.max_token_chars
        pieces: list[int] = []
        i, n = 0, len(word)
        while i < n:
            prefix = CONTINUATION_PREFIX if i else ""
            found = -1
            for j in range(min(n, i + longest), i, -1):
                tid = table.get(prefix + word[i:j])
                if tid is not None:
                    found = tid
                    i = j
                    break
            if found < 0:
                return [UNK_ID]
            pieces.append(found)
        return pieces

    def decode(self, ids: Iterable[int]) -> str:
        words: list[str] = []
        for tid in ids:
            tid = int(tid)
            if tid < 0 or tid >= len(self.vocab):
                raise IndexError(f"token id {tid} outside vocabulary")
            tok = self.vocab.tokens[tid]
            if tok.startswith(CONTINUATION_PREFIX) and words:
                words[-1] += tok[len(CONTINUATION_PREFIX):]
            else:
                words.append(tok)
        return " ".join(words)


def _word_symbols(word: str) -> list[str]:
    return [word[0]] + [CONTINUATION_PREFIX + c for c in word[1:]]


class _PairTable:
    """Growable arrays of (left, right, count) keyed by symbol-id pair.

    Kept as flat numpy arrays so the per-round argmax over merge scores
    is a vectorized scan; dead rows (count 0) are compacted away when
    they start to dominate.
    """

    def __init__(self):
        cap = 1 << 12
        self.count = np.zeros(cap, np.int64)
        self.left = np.zeros(cap, np.int32)
        self.right = np.zeros(cap, np.int32)
        self.index: dict[tuple[int, int], int] = {}
        self.words: list[set[int]] = []
        self.n = 0

    def pid(self, l: int, r: int) -> int:
        got = self.index.get((l, r))
        if got is not None:
            return got
        if self.n == self.count.size:
            grow = self.count.size * 2
            for attr in ("count", "left", "right"):
                arr = np.zeros(grow, getattr(self, attr).dtype)
                arr[: self.n] = getattr(self, attr)[: self.n]
                setattr(self, attr, arr)
        pid = self.n
        self.n += 1
        self.left[pid], self.right[pid] = l, r
        self.index[(l, r)] = pid
        self.words.append(set())
        return pid

    def compact(self) -> None:
        live = np.flatnonzero(self.count[: self.n] > 0)
        self.count[: live.size] = self.count[live]
        self.left[: live.size] = self.left[live]
        self.right[: live.size] = self.right[live]
        # Vacated rows must read as empty or pid() would hand them out
        # with a ghost count attached.
        self.count[live.size : self.n] = 0
        self.words = [self.words[i] for i in live]
        self.n = live.size
        self.index = {
            (int(self.left[i]), int(self.right[i])): i for i in range(self.n)
        }


def train_wordpiece(
    corpus: Iterable[str], vocab_size: int, max_chars_per_word: int = 100
) -> WordPieceModel:
    """Learn a WordPiece vocabulary of exactly vocab_size entries.

    If the corpus runs out of mergeable pairs first, a warning reports
    the shortfall and the smaller vocabulary is returned.
    """
    word_freq: Counter[str] = Counter()
    for text in corpus:
        word_freq.update(pre_tokenize(normalize(text)))
    if not word_freq:
        raise ConfigurationError("corpus is empty after normalization")

    alphabet = sorted({ch for w in word_freq for ch in w})
    tokens = list(SPECIAL_TOKENS) + alphabet
    if vocab_size < len(tokens):
        raise ConfigurationError(
            f"vocab_size {vocab_size} below specials+alphabet {len(tokens)}"
        )
    token_set = set(tokens)

    syms: list[str] = []
    sym_id: dict[str, int] = {}
    sym_count_list: list[float] = []

    def intern(s: str) -> int:
        got = sym_id.get(s)
        if got is None:
            got = len(syms)
            sym_id[s] = got
            syms.append(s)
            sym_count_list.append(0.0)
        return got

    words: list[list[int]] = []
    freqs: list[int] = []
    pairs = _PairTable()
    for word, freq in word_freq.items():
        wi = len(words)
        wsyms = [intern(s) for s in _word_symbols(word)]
        words.append(wsyms)
        freqs.append(freq)
        for s in wsyms:
            sym_count_list[s] += freq
        for a, b in zip(wsyms, wsyms[1:]):
            pid = pairs.pid(a, b)
            pairs.count[pid] += freq
            pairs.words[pid].add(wi)

    sym_count = np.array(sym_count_list, np.float64)

    def grow_sym_count(n: int) -> None:
        nonlocal sym_count
        if n > sym_count.size:
            arr = np.zeros(max(n, sym_count.size * 2), np.float64)
            arr[: sym_count.size] = sym_count
            sym_count = arr

    rounds_since_compact = 0
    while len(tokens) < vocab_size:
        n = pairs.n
        if n == 0:
            break
        counts = pairs.count[:n]
        denom = sym_count[pairs.left[:n]] * sym_count[pairs.right[:n]]
        scores = np.divide(
            counts, denom, out=np.full(n, -1.0), where=counts > 0
        )
        best = scores.max() if n else -1.0
        if best <= 0:
            break
        cand = np.flatnonzero(scores == best)
        pid = int(cand[0])
        if cand.size > 1:
            key = (syms[pairs.left[pid]], syms[pairs.right[pid]])
            for c in cand[1:]:
                k = (syms[pairs.left[c]], syms[pairs.right[c]])
                if k < key:
                    key, pid = k, int(c)
        l, r = int(pairs.left[pid]), int(pairs.right[pid])
        right_str = syms[r]
        if right_str.startswith(CONTINUATION_PREFIX):
            right_str = right_str[len(CONTINUATION_PREFIX):]
        merged_str = syms[l] + right_str
        merged = intern(merged_str)
        grow_sym_count(len(syms))
        if merged_str not in token_set:
            token_set.add(merged_str)
            tokens.append(merged_str)

        for wi in list(pairs.words[pid]):
            old = words[wi]
            freq = freqs[wi]
            new: list[int] = []
            i = 0
            while i < len(old):
                if i + 1 < len(old) and old[i] == l and old[i + 1] == r:
                    new.append(merged)
                    i += 2
                else:
                    new.append(old[i])
                    i += 1
            if len(new) == len(old):
                continue
            words[wi] = new
            for s in old:
                sym_count[s] -= freq
            for s in new:
                sym_count[s] += freq
            old_pairs = Counter(zip(old, old[1:]))
            new_pairs = Counter(zip(new, new[1:]))
            for pr in old_pairs.keys() | new_pairs.keys():
                delta = new_pairs.get(pr, 0) - old_pairs.get(pr, 0)
                if delta == 0:
                    continue
                qid = pairs.pid(*pr)
                pairs.count[qid] += delta * freq
                if new_pairs.get(pr, 0):
                    pairs.words[qid].add(wi)
                else:
                    pairs.words[qid].discard(wi)

        rounds_since_compact += 1
        if rounds_since_compact >= 1024:
            rounds_since_compact = 0
            if np.count_nonzero(pairs.count[: pairs.n] > 0) < pairs.n // 2:
                pairs.compact()

    if len(tokens) < vocab_size:
        warnings.warn(
            f"corpus exhausted at {len(tokens)} tokens "
            f"(requested {vocab_size})",
            stacklevel=2,
        )
    return WordPieceModel(Vocab(tokens), max_chars_per_word)
