"""Reference versions of the text rules, as character loops.

`normalize` and `pre_tokenize` are the loops `cramlab.tokenizer` used
before it wrote each rule through the ASCII codec and one regular
expression; they live on here only as oracles the library functions are
checked against, over every code point and over seeded random text.
"""

import unicodedata


def normalize(text: str) -> str:
    out = []
    for ch in unicodedata.normalize("NFD", text.lower()):
        # Every combining mark NFD splits off lies above U+007E, so this
        # drops the accents with the rest of non-ASCII.
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
