"""Seeded input generators. The same seed always gives the same inputs.

Training workloads get token-id entries, packed by the program, so no
tokenizer time enters their measurement; the prepare workload gets raw
text.
"""

from __future__ import annotations

import numpy as np

from cramlab.corpus import TokenizedEntry
from cramlab.tokenizer import SPECIAL_TOKENS

SYLLABLES = (
    "ba be bo da de di ga go ka ke ki la le lo ma me mi na ne no pa po "
    "ra re ri sa se so ta te ti va vo za zu sh th ch"
).split()
ENDINGS = ("", "s", "ed", "ing", "er", "ly", "tion", "ness")
GIBBERISH_CHARS = np.array(list("abcdefghijklmnopqrstuvwxyz0123456789"))


def zipf_probs(n: int, exponent: float = 1.0) -> np.ndarray:
    p = 1.0 / np.arange(1.0, n + 1.0) ** exponent
    return p / p.sum()


def token_entries(seed: int, vocab_size: int, tokens: int) -> list[TokenizedEntry]:
    """Entries of 16 to 256 Zipf-distributed ids, at least `tokens` in all.

    The rank-to-id map is a seeded permutation, so each seed makes
    different ids frequent. Special ids never appear in the entries.
    """
    rng = np.random.default_rng(seed)
    ids = rng.permutation(np.arange(len(SPECIAL_TOKENS), vocab_size))
    lengths = rng.integers(16, 257, size=tokens // 16 + 1)
    lengths = lengths[: int(np.searchsorted(np.cumsum(lengths), tokens)) + 1]
    flat = ids[rng.choice(ids.size, size=int(lengths.sum()), p=zipf_probs(ids.size))]
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    return [TokenizedEntry.from_ids(flat[a:b], i)
            for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))]


def lexicon(rng: np.random.Generator, stems: int) -> list[str]:
    """Invented words that share stems and endings, so subword merges
    have structure to find."""
    out: set[str] = set()
    while len(out) < stems:
        out.add("".join(rng.choice(SYLLABLES, size=int(rng.integers(2, 5)))))
    return sorted(s + e for s in sorted(out) for e in ENDINGS)


def text_corpus(seed: int, lines: int, stems: int) -> list[str]:
    """Zipf-weighted sentences over a lexicon of `stems` stems.

    The lexicon, its frequency order and eight 60-word boilerplate
    passages are fixed by `stems`, so every seed draws from the same
    language and asks the tokenizer for the same work; the seed draws
    the sentences. About 5% of lines are symbol soup, one-char words
    that segment into a token per two chars, which the compression
    filter drops. About 10% of lines end in a boilerplate passage,
    which exact-substring dedup excises after its first occurrence.
    """
    fixed = np.random.default_rng(stems)
    words = lexicon(fixed, stems)
    order = fixed.permutation(len(words))
    boiler = [" ".join(words[order[j]] for j in fixed.integers(0, len(words), size=60))
              for _ in range(8)]
    rng = np.random.default_rng(seed)
    lengths = rng.integers(8, 40, size=lines)
    flat = order[rng.choice(len(words), size=int(lengths.sum()), p=zipf_probs(len(words), 1.05))]
    kind = rng.random(lines)
    out: list[str] = []
    at = 0
    for k, u in zip(lengths, kind):
        sentence = " ".join(words[i] for i in flat[at:at + k])
        at += k
        if u < 0.05:
            chars = GIBBERISH_CHARS[rng.integers(0, GIBBERISH_CHARS.size, size=int(rng.integers(20, 80)))]
            out.append(" ".join(chars))
        elif u < 0.15:
            out.append(sentence + " " + boiler[int(rng.integers(0, len(boiler)))] + ".")
        else:
            out.append(sentence + ".")
    return out
