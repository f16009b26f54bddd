"""Shared fixtures: synthetic corpora with reusable morphology and a
trained tokenizer."""

import numpy as np
import pytest

SYLLABLES = [
    "ba", "be", "bo", "da", "de", "di", "ga", "go", "ka", "ke", "ki",
    "la", "le", "lo", "ma", "me", "mi", "na", "ne", "no", "pa", "po",
    "ra", "re", "ri", "sa", "se", "so", "ta", "te", "ti", "va", "vo",
    "za", "zu", "sh", "th", "ch",
]
ENDINGS = ["", "s", "ed", "ing", "er", "ly", "tion", "ness"]


def make_lexicon(rng: np.random.Generator, n_stems: int) -> list[str]:
    """Invented words sharing stems and endings, so a trained subword
    vocabulary gets high coverage."""
    stems = set()
    while len(stems) < n_stems:
        k = rng.integers(2, 4)
        stems.add("".join(rng.choice(SYLLABLES, size=k)))
    lex = sorted({s + e for s in sorted(stems) for e in ENDINGS})
    return lex


def make_sentences(rng: np.random.Generator, lexicon: list[str], n: int,
                   min_words: int = 6, max_words: int = 24) -> list[str]:
    """Zipf-weighted sentences over the lexicon."""
    probs = 1.0 / np.arange(1.0, len(lexicon) + 1.0)
    probs /= probs.sum()
    lengths = rng.integers(min_words, max_words + 1, size=n)
    flat = rng.choice(len(lexicon), size=int(lengths.sum()), p=probs)
    out = []
    at = 0
    for k in lengths:
        out.append(" ".join(lexicon[i] for i in flat[at: at + k]))
        at += k
    return out


def make_chain_corpus(rng: np.random.Generator, lexicon: list[str], n_lines: int,
                      min_words: int = 20, max_words: int = 60,
                      branching: int = 20) -> list[str]:
    """Sentences walked over a sparse random word-bigram chain.

    Adjacent words are statistically dependent, so masked prediction has
    structure to learn beyond unigram frequencies."""
    n = len(lexicon)
    succ = rng.integers(0, n, size=(n, branching))
    lengths = rng.integers(min_words, max_words + 1, size=n_lines)
    lines = []
    for k in lengths:
        w = int(rng.integers(0, n))
        sent = [lexicon[w]]
        for j in rng.integers(0, branching, size=int(k) - 1):
            w = int(succ[w, j])
            sent.append(lexicon[w])
        lines.append(" ".join(sent))
    return lines


@pytest.fixture(scope="session")
def lexicon():
    return make_lexicon(np.random.default_rng(101), n_stems=300)


@pytest.fixture(scope="session")
def small_corpus(lexicon):
    return make_sentences(np.random.default_rng(102), lexicon, 600)


@pytest.fixture(scope="session")
def wp_small(small_corpus):
    from cramlab.tokenizer import train_wordpiece

    return train_wordpiece(small_corpus, vocab_size=1024)

