"""Corpus curation: filtering, deduplication, packing, prevalence sort.

The pipeline turns raw text entries into fixed-length id sequences:

  normalize+tokenize -> compression filter -> exact-substring dedup
  -> seeded shuffle + pack with <sep> -> optional prevalence sort

Ids are machine integers from entry to matrix. An entry holds them in
an int64 `array.array`, which dedup and `pack` read through numpy as a
buffer, with no Python int per token; `pack` checks them against the
vocabulary and casts them once to the uint16 matrix the trainer reads.
A saved dataset is its file: `load_dataset` maps the id matrix
read-only, so a day-scale corpus costs reclaimable file-backed pages,
not an anonymous copy.

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
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError
from .serde import committed
from .tensor import row_blocks
from .tokenizer import SEP_ID, UNK_ID, WordPieceModel, normalize

DATASET_MAGIC = b"CRAM"
DATASET_VERSION = 1
# magic, version, seq_len, vocab_size, sequence count; the id matrix follows.
_HEADER = struct.Struct("<4sIIIQ")
ID_DTYPE = np.dtype("<u2")


@dataclass
class RawEntry:
    text: str
    char_count: int


@dataclass
class TokenizedEntry:
    ids: array  # typecode "q": compares by value, iterates as Python ints
    source_index: int

    @property
    def token_count(self) -> int:
        return len(self.ids)

    @classmethod
    def from_ids(cls, ids, source_index: int) -> "TokenizedEntry":
        return cls(ids=array("q", np.asarray(ids, dtype=np.int64).tobytes()),
                   source_index=source_index)


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
    """A (N, S) uint16 id matrix, made by `pack` or mapped from its file
    by `load_dataset`, and the vocabulary size it indexes. Width and
    counts derive from the ids."""

    sequences: np.ndarray  # (N, S) ID_DTYPE
    vocab_size: int

    @property
    def seq_len(self) -> int:
        return int(self.sequences.shape[1])

    @property
    def sequence_count(self) -> int:
        return int(self.sequences.shape[0])

    @property
    def token_count(self) -> int:
        return int(self.sequences.size)

    @property
    def unigram_counts(self) -> np.ndarray:
        # By row blocks: bincount casts the ids it is given to intp, four
        # times the bytes of uint16.
        counts = np.zeros(self.vocab_size, np.intp)
        for b in row_blocks(*self.sequences.shape)[1]:
            part = np.bincount(self.sequences[b].ravel(), minlength=counts.size)
            part[:counts.size] += counts
            counts = part
        return counts

    def validate(self) -> None:
        if self.sequences.ndim != 2 or self.sequences.dtype != ID_DTYPE:
            raise ContractError("sequences must be a 2-D uint16 id matrix")
        if self.sequences.size and int(self.sequences.max()) >= self.vocab_size:
            raise ContractError("token id outside vocab_size")


def compression_filter(entry: TokenizedEntry, raw: RawEntry, t: float) -> bool:
    """Keep iff token_count <= t * char_count; zero-char entries drop."""
    if raw.char_count <= 0:
        return False
    return entry.token_count <= t * raw.char_count


def _first_windows(arr: np.ndarray, L: int) -> np.ndarray:
    """For each length-L window of arr, the start of its first occurrence.

    Rank doubling: equal ranks at window length k for positions i and
    i+k combine into ranks at length 2k; the final step overlaps two
    length-k windows to land exactly on L, and its np.unique gives each
    window's first occurrence along with its group.
    """
    _, rank = np.unique(arr, return_inverse=True)
    rank = rank.astype(np.int64)
    k = 1
    while True:
        off = min(k, L - k)
        m = arr.size - (k + off) + 1
        combined = rank[:m] * (rank.max() + 1) + rank[off:off + m]
        k += off
        if k == L:
            _, first, group = np.unique(combined, return_index=True, return_inverse=True)
            return first[group]
        _, rank = np.unique(combined, return_inverse=True)
        rank = rank.astype(np.int64)


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
    # Unique negative separator after each entry: windows crossing
    # entry boundaries can never match anything.
    ends = np.cumsum(np.fromiter((e.token_count for e in entries), np.int64, len(entries)))
    concat = np.insert(np.frombuffer(b"".join(e.ids for e in entries), np.int64),
                       ends, -np.arange(1, len(entries) + 1))
    n = concat.size

    covered = np.zeros(n, dtype=bool)
    if n - L + 1 > 0:
        first = _first_windows(concat, L)
        dup_positions = np.flatnonzero(first != np.arange(first.size))
        delta = np.zeros(n + 1, dtype=np.int64)
        delta[dup_positions] += 1
        delta[dup_positions + L] -= 1
        covered = np.cumsum(delta[:n]) > 0

    out: list[TokenizedEntry] = []
    ofs = 0
    for e in entries:
        keep = ~covered[ofs:ofs + e.token_count]
        ofs += e.token_count + 1
        if keep.all():
            out.append(e)
            continue
        boundaries = np.flatnonzero(np.diff(np.r_[0, keep.view(np.int8), 0]))
        for start, stop in zip(boundaries[::2], boundaries[1::2]):
            out.append(TokenizedEntry(e.ids[start:stop], e.source_index))
    return out


def pack(entries: list[TokenizedEntry], S: int, seed: int, vocab_size: int) -> PackedDataset:
    """Shuffle entries by seed, join with single <sep> ids, chunk to S.

    The trailing remainder shorter than S is discarded. Ids are uint16,
    so this is where a vocabulary wider than 65536, or an id outside
    [0, vocab_size), is refused.
    """
    if vocab_size > 65536:
        raise ConfigurationError(f"vocab_size {vocab_size} exceeds the 65536 uint16 ids")
    if not entries:
        raise ConfigurationError("nothing to pack")
    perm = np.random.default_rng(seed).permutation(len(entries))
    sep = array("q", [SEP_ID]).tobytes()
    stream = np.frombuffer(sep.join([entries[i].ids for i in perm]), np.int64)
    if stream.size and (stream.min() < 0 or stream.max() >= vocab_size):
        bad = stream[(stream < 0) | (stream >= vocab_size)][0]
        raise ContractError(f"token id {bad} outside [0, {vocab_size})")
    n_seq = stream.size // S
    if n_seq == 0:
        raise ConfigurationError(
            f"token supply {stream.size} below one sequence of length {S}"
        )
    return PackedDataset(stream[: n_seq * S].astype(ID_DTYPE).reshape(n_seq, S), vocab_size)


def sort_by_prevalence(ds: PackedDataset) -> PackedDataset:
    """Reorder sequences by descending mean log unigram probability.

    Probabilities come from ds's own unigram counts; <sep> counts like
    any other token. Ties keep original order. Rows are scored a block at
    a time, so the float64 log-probabilities of all ids never exist at
    once.
    """
    counts = ds.unigram_counts.astype(np.float64)
    total = counts.sum()
    logp = np.full(ds.vocab_size, -np.inf)
    present = counts > 0
    logp[present] = np.log(counts[present] / total)
    scores = np.empty(ds.sequence_count)
    for b in row_blocks(*ds.sequences.shape)[1]:
        scores[b] = logp[ds.sequences[b]].mean(axis=1)
    order = np.argsort(-scores, kind="stable")
    return PackedDataset(ds.sequences[order], ds.vocab_size)


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
    tokenized: list[TokenizedEntry] = []
    ratios: list[float] = []
    for i, text in enumerate(texts):
        report.entries_in += 1
        norm = normalize(text)
        if not norm:
            report.dropped_empty += 1
            continue
        entry = TokenizedEntry.from_ids(wp.encode_normalized(norm), source_index=i)
        if cfg.t is not None and not compression_filter(entry, RawEntry(text, len(norm)), cfg.t):
            report.dropped_filter += 1
            continue
        tokenized.append(entry)
        ratios.append(entry.token_count / len(norm))
    report.entries_after_filter = len(tokenized)
    report.tokens_before_dedup = sum(e.token_count for e in tokenized)
    ratio = float(np.mean(ratios)) if ratios else None

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
    header = _HEADER.pack(DATASET_MAGIC, DATASET_VERSION, ds.seq_len,
                          ds.vocab_size, ds.sequence_count)
    with committed(path) as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(ds.sequences))


def load_dataset(path: str) -> PackedDataset:
    """Check the header and the file size, then map the ids read-only."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size or head[:4] != DATASET_MAGIC:
            raise ContractError(f"{path}: bad dataset magic")
        _, version, seq_len, vocab_size, count = _HEADER.unpack(head)
        if version != DATASET_VERSION:
            raise ContractError(f"{path}: unsupported dataset version {version}")
        if os.fstat(fh.fileno()).st_size != _HEADER.size + count * seq_len * ID_DTYPE.itemsize:
            raise ContractError(f"{path}: body size disagrees with header")
        sequences = np.memmap(fh, dtype=ID_DTYPE, mode="r", offset=_HEADER.size,
                              shape=(count, seq_len))
    ds = PackedDataset(sequences, vocab_size)
    ds.validate()
    return ds
