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


ACCENTED = {"a": "àáâä", "c": "ç", "e": "éèêë", "i": "íï", "n": "ñ", "o": "óôö", "u": "úü"}
NON_ASCII_WORDS = ["日本語", "straße", "Ωmega", "œuvre", "½", "n°5", "—", "naïve"]
PUNCTUATION = list(",.;:!?'\"()-/_&%#@")


def add_noise(rng: np.random.Generator, sentences: list[str]) -> list[str]:
    """The sentences with seeded accents, capitals, DEL inside words,
    attached punctuation, non-ASCII words and tab or DEL separators, so
    every rule of normalize and pre_tokenize reaches the words; every
    tenth noisy line is repeated at the end for deduplication to find."""
    out = []
    for sentence in sentences:
        words = []
        for w in sentence.split():
            kind = rng.integers(8)
            if kind == 0:
                w = "".join(str(rng.choice(list(ACCENTED[c]))) if c in ACCENTED and
                            rng.random() < 0.5 else c for c in w)
            elif kind == 1:
                w = w.title() if rng.random() < 0.5 else w.upper()
            elif kind == 2:
                k = int(rng.integers(1, len(w)))
                w = w[:k] + "\x7f" + w[k:]
            elif kind == 3:
                w = w + str(rng.choice(PUNCTUATION))
            elif kind == 4:
                w = str(rng.choice(NON_ASCII_WORDS)) + " " + w
            words.append(w)
            words.append(str(rng.choice([" ", " ", " ", "\t", "  ", " \x7f "])))
        out.append("".join(words[:-1]))
    return out + out[::10]


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



@pytest.fixture(scope="session")
def noisy_corpus(small_corpus):
    return add_noise(np.random.default_rng(103), small_corpus)


@pytest.fixture(scope="session")
def wp_noisy(noisy_corpus):
    from cramlab.tokenizer import train_wordpiece

    return train_wordpiece(noisy_corpus, vocab_size=1024)
