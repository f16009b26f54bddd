"""Corpus curation: filtering, deduplication, packing, prevalence sort.

The pipeline turns raw text entries into fixed-length id sequences:

  normalize+tokenize -> compression filter -> exact-substring dedup
  -> seeded shuffle + pack with <sep> -> optional prevalence sort

Deduplication works on token ids. Every length-L window that also
occurs earlier in the corpus is excised, which removes exactly the
repeated spans of length >= L (a span of length M >= L repeats iff all
its length-L windows repeat). Window equality is tested through rank
doubling (the suffix-array construction, stopping at window length L
instead of producing the full sorted order).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError
from .tokenizer import SEP_ID, UNK_ID, WordPieceModel, normalize

DATASET_MAGIC = b"CRAM"
DATASET_VERSION = 1


@dataclass
class RawEntry:
    text: str
    char_count: int


@dataclass
class TokenizedEntry:
    ids: list[int]
    token_count: int
    source_index: int

    @classmethod
    def from_ids(cls, ids, source_index: int) -> "TokenizedEntry":
        ids = list(map(int, ids))
        return cls(ids=ids, token_count=len(ids), source_index=source_index)


@dataclass
class PipelineConfig:
    """Curation knobs. t=None disables filtering, dedup_min_len=None
    disables deduplication; when set, t must be positive and
    dedup_min_len at least 2."""

    t: float | None = 0.3
    dedup_min_len: int | None = None
    sort: bool = True
    shuffle_seed: int = 0
    seq_len: int = 128

    def validate(self) -> None:
        if self.t is not None and self.t <= 0:
            raise ConfigurationError("filter threshold t must be positive")
        if self.dedup_min_len is not None and self.dedup_min_len < 2:
            raise ConfigurationError("dedup_min_len must be at least 2")
        if self.seq_len < 2:
            raise ConfigurationError("seq_len must be at least 2")
        if self.shuffle_seed < 0:
            raise ConfigurationError("shuffle_seed must be nonnegative")


@dataclass
class PackedDataset:
    sequences: np.ndarray  # (N, S) int32
    seq_len: int
    vocab_size: int
    unigram_counts: np.ndarray  # (vocab_size,) int64

    @property
    def sequence_count(self) -> int:
        return int(self.sequences.shape[0])

    @property
    def token_count(self) -> int:
        return int(self.sequences.size)

    def validate(self) -> None:
        n, s = self.sequences.shape
        if s != self.seq_len:
            raise ContractError("sequence width disagrees with seq_len")
        if self.sequences.size and int(self.sequences.max()) >= self.vocab_size:
            raise ContractError("token id outside vocab_size")
        if int(self.unigram_counts.sum()) != n * s:
            raise ContractError("unigram_counts do not sum to token count")


def compression_filter(entry: TokenizedEntry, raw: RawEntry, t: float) -> bool:
    """Keep iff token_count <= t * char_count; zero-char entries drop."""
    if raw.char_count <= 0:
        return False
    return entry.token_count <= t * raw.char_count


def _window_ranks(arr: np.ndarray, L: int) -> np.ndarray:
    """Dense equality ranks of the length-L windows of arr.

    Rank doubling: equal ranks at window length k for positions i and
    i+k combine into ranks at length 2k; the final step overlaps two
    length-k windows to land exactly on L.
    """
    n = arr.size
    _, rank = np.unique(arr, return_inverse=True)
    rank = rank.astype(np.int64)
    k = 1
    while 2 * k < L:
        m = n - 2 * k + 1
        combined = rank[:m] * (rank.max() + 1) + rank[k:k + m]
        _, rank = np.unique(combined, return_inverse=True)
        rank = rank.astype(np.int64)
        k *= 2
    if k < L:
        off = L - k
        m = n - L + 1
        combined = rank[:m] * (rank.max() + 1) + rank[off:off + m]
        _, rank = np.unique(combined, return_inverse=True)
        rank = rank.astype(np.int64)
    return rank


def dedup_exact(entries: list[TokenizedEntry], L: int) -> list[TokenizedEntry]:
    """Excise every token span of length >= L that occurred earlier.

    The first occurrence (corpus order) of any repeated span is kept
    untouched; later occurrences are cut out, and the remaining pieces
    of an entry survive as separate entries.
    """
    if L < 2:
        raise ConfigurationError("dedup threshold must be at least 2")
    if not entries:
        return []
    parts: list[np.ndarray] = []
    offsets: list[int] = []
    pos = 0
    for i, e in enumerate(entries):
        offsets.append(pos)
        parts.append(np.asarray(e.ids, dtype=np.int64))
        pos += e.token_count
        # Unique negative separator per boundary: windows crossing
        # entry boundaries can never match anything.
        parts.append(np.asarray([-(i + 1)], dtype=np.int64))
        pos += 1
    concat = np.concatenate(parts)
    n = concat.size

    covered = np.zeros(n, dtype=bool)
    if n - L + 1 > 0:
        ranks = _window_ranks(concat, L)
        order = np.argsort(ranks, kind="stable")
        sorted_r = ranks[order]
        first_of_group = np.r_[True, sorted_r[1:] != sorted_r[:-1]]
        dup_positions = order[~first_of_group]
        delta = np.zeros(n + 1, dtype=np.int64)
        delta[dup_positions] += 1
        delta[dup_positions + L] -= 1
        covered = np.cumsum(delta[:n]) > 0

    out: list[TokenizedEntry] = []
    for e, ofs in zip(entries, offsets):
        keep = ~covered[ofs:ofs + e.token_count]
        if keep.all():
            out.append(e)
            continue
        ids = np.asarray(e.ids, dtype=np.int64)
        boundaries = np.flatnonzero(np.diff(np.r_[0, keep.view(np.int8), 0]))
        for start, stop in zip(boundaries[::2], boundaries[1::2]):
            out.append(TokenizedEntry.from_ids(ids[start:stop], e.source_index))
    return out


def pack(entries: list[TokenizedEntry], S: int, seed: int, vocab_size: int) -> PackedDataset:
    """Shuffle entries by seed, join with single <sep> ids, chunk to S.

    The trailing remainder shorter than S is discarded.
    """
    if not entries:
        raise ConfigurationError("nothing to pack")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(entries))
    pieces: list[np.ndarray] = []
    sep = np.asarray([SEP_ID], dtype=np.int32)
    for j, idx in enumerate(perm):
        if j:
            pieces.append(sep)
        pieces.append(np.asarray(entries[idx].ids, dtype=np.int32))
    stream = np.concatenate(pieces)
    n_seq = stream.size // S
    if n_seq == 0:
        raise ConfigurationError(
            f"token supply {stream.size} below one sequence of length {S}"
        )
    sequences = stream[: n_seq * S].reshape(n_seq, S).copy()
    counts = np.bincount(sequences.ravel(), minlength=vocab_size).astype(np.int64)
    ds = PackedDataset(sequences=sequences, seq_len=S, vocab_size=vocab_size,
                       unigram_counts=counts)
    ds.validate()
    return ds


def sort_by_prevalence(ds: PackedDataset) -> PackedDataset:
    """Reorder sequences by descending mean log unigram probability.

    Probabilities come from ds's own unigram counts; <sep> counts like
    any other token. Ties keep original order.
    """
    counts = ds.unigram_counts.astype(np.float64)
    total = counts.sum()
    logp = np.full(ds.vocab_size, -np.inf)
    present = counts > 0
    logp[present] = np.log(counts[present] / total)
    scores = logp[ds.sequences].mean(axis=1)
    order = np.argsort(-scores, kind="stable")
    return PackedDataset(
        sequences=ds.sequences[order].copy(),
        seq_len=ds.seq_len,
        vocab_size=ds.vocab_size,
        unigram_counts=ds.unigram_counts.copy(),
    )


@dataclass
class StatsReport:
    sequence_count: int
    token_count: int
    unigram_entropy: float
    unk_rate: float
    mean_compression_ratio: float | None = None

    def to_text(self) -> str:
        lines = [
            f"sequences            {self.sequence_count}",
            f"tokens               {self.token_count}",
            f"unigram entropy      {self.unigram_entropy:.4f} nats",
            f"unk rate             {self.unk_rate:.6f}",
        ]
        if self.mean_compression_ratio is not None:
            lines.append(
                f"mean tokens per char {self.mean_compression_ratio:.4f}"
            )
        return "\n".join(lines)


def corpus_stats(ds: PackedDataset, mean_compression_ratio: float | None = None) -> StatsReport:
    counts = ds.unigram_counts.astype(np.float64)
    total = counts.sum()
    entropy = 0.0
    if total > 0:
        p = counts[counts > 0] / total
        entropy = float(-(p * np.log(p)).sum())
    unk_rate = float(counts[UNK_ID] / total) if total > 0 else 0.0
    return StatsReport(
        sequence_count=ds.sequence_count,
        token_count=ds.token_count,
        unigram_entropy=entropy,
        unk_rate=unk_rate,
        mean_compression_ratio=mean_compression_ratio,
    )


@dataclass
class PipelineReport:
    entries_in: int = 0
    dropped_empty: int = 0
    dropped_filter: int = 0
    entries_after_filter: int = 0
    entries_after_dedup: int = 0
    tokens_before_dedup: int = 0
    tokens_after_dedup: int = 0
    stats: StatsReport | None = None

    def to_text(self) -> str:
        lines = [
            f"entries in           {self.entries_in}",
            f"dropped empty        {self.dropped_empty}",
            f"dropped by filter    {self.dropped_filter}",
            f"entries after filter {self.entries_after_filter}",
            f"entries after dedup  {self.entries_after_dedup}",
            f"tokens before dedup  {self.tokens_before_dedup}",
            f"tokens after dedup   {self.tokens_after_dedup}",
        ]
        if self.stats is not None:
            lines.append(self.stats.to_text())
        return "\n".join(lines)


def curate(
    texts, wp: WordPieceModel, cfg: PipelineConfig
) -> tuple[PackedDataset, PipelineReport]:
    """Run the full curation pipeline over an iterable of raw texts."""
    cfg.validate()
    report = PipelineReport()
    raws: list[RawEntry] = []
    tokenized: list[TokenizedEntry] = []
    for i, text in enumerate(texts):
        report.entries_in += 1
        norm = normalize(text)
        if not norm:
            report.dropped_empty += 1
            continue
        ids = wp.encode_normalized(norm)
        raws.append(RawEntry(text=text, char_count=len(norm)))
        tokenized.append(TokenizedEntry.from_ids(ids, source_index=i))

    if cfg.t is not None:
        kept_r, kept_t = [], []
        for raw, ent in zip(raws, tokenized):
            if compression_filter(ent, raw, cfg.t):
                kept_r.append(raw)
                kept_t.append(ent)
            else:
                report.dropped_filter += 1
        raws, tokenized = kept_r, kept_t
    report.entries_after_filter = len(tokenized)
    report.tokens_before_dedup = sum(e.token_count for e in tokenized)

    ratio = None
    if tokenized:
        ratio = float(
            np.mean([e.token_count / r.char_count for e, r in zip(tokenized, raws)])
        )

    if cfg.dedup_min_len is not None:
        tokenized = dedup_exact(tokenized, cfg.dedup_min_len)
    report.entries_after_dedup = len(tokenized)
    report.tokens_after_dedup = sum(e.token_count for e in tokenized)

    ds = pack(tokenized, cfg.seq_len, cfg.shuffle_seed, wp.vocab_size)
    if cfg.sort:
        ds = sort_by_prevalence(ds)
    report.stats = corpus_stats(ds, mean_compression_ratio=ratio)
    return ds, report


def save_dataset(path: str, ds: PackedDataset) -> None:
    ds.validate()
    if ds.vocab_size > 65536:
        raise ContractError("dataset format stores u16 ids: vocab_size > 65536")
    header = DATASET_MAGIC + struct.pack(
        "<IIIQ", DATASET_VERSION, ds.seq_len, ds.vocab_size, ds.sequence_count
    )
    body = ds.sequences.astype("<u2").tobytes()
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(body)
    os.replace(tmp, path)


def load_dataset(path: str) -> PackedDataset:
    with open(path, "rb") as fh:
        head = fh.read(4 + struct.calcsize("<IIIQ"))
        if head[:4] != DATASET_MAGIC:
            raise ContractError(f"{path}: bad dataset magic")
        version, seq_len, vocab_size, count = struct.unpack("<IIIQ", head[4:])
        if version != DATASET_VERSION:
            raise ContractError(f"{path}: unsupported dataset version {version}")
        body = fh.read()
    if len(body) != count * seq_len * 2:
        raise ContractError(f"{path}: body size disagrees with header")
    ids = np.frombuffer(body, dtype="<u2")
    sequences = ids.reshape(int(count), seq_len).astype(np.int32)
    counts = np.bincount(sequences.ravel(), minlength=vocab_size).astype(np.int64)
    ds = PackedDataset(sequences=sequences, seq_len=seq_len,
                       vocab_size=vocab_size, unigram_counts=counts)
    ds.validate()
    return ds
