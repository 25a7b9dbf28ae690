"""Porter2 ("english" Snowball) stemmer, pure Python.

The reference registers the ``en_stem`` analyzer for every indexed field
(``/root/reference/test/lib/fixtures.js:23``), whose stemming stage is
tantivy's ``Stemmer(Language::English)`` — the Snowball "english"
(Porter2) algorithm. No snowball bindings exist in this environment, so
this is a from-scratch implementation of the published algorithm
(snowballstem.org/algorithms/english/stemmer.html), used identically at
index and query time (SURVEY.md §8.1).

The implementation favors clarity; the hot path caches stems per unique
term (Zipfian vocabularies give very high hit rates), see
``rayfts.analysis.analyzer``.
"""

from __future__ import annotations

_VOWELS = frozenset("aeiouy")
_DOUBLES = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")
_LI_ENDING = frozenset("cdeghkmnrt")
_ASCII_DIGITS = frozenset("0123456789")

# Exceptional forms applied before the algorithm proper.
_EXCEPTIONS1 = {
    "skis": "ski", "skies": "sky", "dying": "die", "lying": "lie",
    "tying": "tie", "idly": "idl", "gently": "gentl", "ugly": "ugli",
    "early": "earli", "only": "onli", "singly": "singl",
    "sky": "sky", "news": "news", "howe": "howe", "atlas": "atlas",
    "cosmos": "cosmos", "bias": "bias", "andes": "andes",
}
# Invariant after step 1a.
_EXCEPTIONS2 = frozenset(
    ["inning", "outing", "canning", "herring", "earring",
     "proceed", "exceed", "succeed"]
)

_STEP2_SUFFIXES = [
    # longest-match order
    ("ization", "ize"), ("ational", "ate"), ("fulness", "ful"),
    ("ousness", "ous"), ("iveness", "ive"), ("tional", "tion"),
    ("biliti", "ble"), ("lessli", "less"), ("entli", "ent"),
    ("ation", "ate"), ("alism", "al"), ("aliti", "al"),
    ("ousli", "ous"), ("iviti", "ive"), ("fulli", "ful"),
    ("enci", "ence"), ("anci", "ance"), ("abli", "able"),
    ("izer", "ize"), ("ator", "ate"), ("alli", "al"),
    ("bli", "ble"), ("ogi", None), ("li", None),
]

_STEP3_SUFFIXES = [
    ("ational", "ate"), ("tional", "tion"), ("alize", "al"),
    ("icate", "ic"), ("iciti", "ic"), ("ative", ""),
    ("ical", "ic"), ("ness", ""), ("ful", ""),
]

_STEP4_SUFFIXES = [
    "ement", "ance", "ence", "able", "ible", "ment",
    "ant", "ent", "ism", "ate", "iti", "ous", "ive", "ize",
    "ion", "al", "er", "ic",
]


def _is_vowel(word: str, i: int) -> bool:
    return word[i] in _VOWELS and word[i] != "Y"


def _compute_r1_r2(word: str) -> tuple[int, int]:
    """R1 = region after the first non-vowel following a vowel; R2 likewise
    within R1. Words beginning gener-/commun-/arsen- fix R1 past the prefix."""
    n = len(word)
    r1 = n
    for prefix in ("gener", "commun", "arsen"):
        if word.startswith(prefix):
            r1 = len(prefix)
            break
    else:
        for i in range(1, n):
            if not _is_vowel(word, i) and _is_vowel(word, i - 1):
                r1 = i + 1
                break
    r2 = n
    for i in range(r1 + 1, n):
        if not _is_vowel(word, i) and _is_vowel(word, i - 1):
            r2 = i + 1
            break
    return r1, r2


def _ends_short_syllable(word: str) -> bool:
    """(a) non-vowel + vowel + non-vowel(not w/x/Y) at the end, or
    (b) word is exactly vowel + non-vowel."""
    n = len(word)
    if n == 2:
        return _is_vowel(word, 0) and not _is_vowel(word, 1)
    if n >= 3:
        return (
            not _is_vowel(word, n - 3)
            and _is_vowel(word, n - 2)
            and not _is_vowel(word, n - 1)
            and word[n - 1] not in "wxY"
        )
    return False


def _contains_vowel(word: str, start: int, end: int) -> bool:
    return any(_is_vowel(word, i) for i in range(start, end))


def stem(token: str) -> str:
    """Stem one lowercase token.

    A token that ends in an ASCII digit comes back unchanged without
    running the algorithm: every step and every exceptional form needs a
    letter suffix or a whole-word match, so only the leading-apostrophe
    strip and the y/Y marking could touch it (identifiers such as
    ``ident8048`` are most of a code corpus's first-seen words)."""
    if token[-1:] in _ASCII_DIGITS and token[0] != "'" and "Y" not in token:
        return token
    return _stem(token)


def _stem(token: str) -> str:
    """The Porter2 algorithm proper."""
    word = token
    if len(word) <= 2:
        return word
    if word[0] == "'":
        word = word[1:]
        if len(word) <= 2:
            return word
    exc = _EXCEPTIONS1.get(word)
    if exc is not None:
        return exc

    # Mark consonant y as Y (start-of-word, or after a vowel).
    chars = list(word)
    if chars[0] == "y":
        chars[0] = "Y"
    for i in range(1, len(chars)):
        if chars[i] == "y" and chars[i - 1] in _VOWELS:
            chars[i] = "Y"
    word = "".join(chars)

    r1, r2 = _compute_r1_r2(word)

    # Step 0: strip trailing apostrophe forms.
    for suf in ("'s'", "'s", "'"):
        if word.endswith(suf):
            word = word[: -len(suf)]
            break

    # Step 1a.
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith(("ied", "ies")):
        word = word[:-3] + ("i" if len(word) > 4 else "ie")
    elif word.endswith(("us", "ss")):
        pass
    elif word.endswith("s"):
        if _contains_vowel(word, 0, len(word) - 2):
            word = word[:-1]

    if word in _EXCEPTIONS2:
        return word

    # Step 1b.
    for suf in ("eedly", "eed"):
        if word.endswith(suf):
            if len(word) - len(suf) >= r1:
                word = word[: -len(suf)] + "ee"
            break
    else:
        for suf in ("ingly", "edly", "ing", "ed"):
            if word.endswith(suf):
                stem_part = word[: -len(suf)]
                if _contains_vowel(stem_part, 0, len(stem_part)):
                    word = stem_part
                    if word.endswith(("at", "bl", "iz")):
                        word += "e"
                    elif word.endswith(_DOUBLES):
                        word = word[:-1]
                    elif _ends_short_syllable(word) and r1 >= len(word):
                        word += "e"
                break

    # Step 1c: y/Y -> i when preceded by a non-vowel that isn't the first letter.
    if (
        len(word) > 2
        and word[-1] in "yY"
        and word[-2] not in _VOWELS
    ):
        word = word[:-1] + "i"

    # Step 2 (suffix must lie in R1).
    for suf, repl in _STEP2_SUFFIXES:
        if word.endswith(suf):
            if len(word) - len(suf) >= r1:
                if suf == "ogi":
                    if word.endswith("logi"):
                        word = word[:-1]
                elif suf == "li":
                    if len(word) >= 3 and word[-3] in _LI_ENDING:
                        word = word[:-2]
                else:
                    word = word[: -len(suf)] + repl
            break

    # Step 3 (suffix in R1; 'ative' additionally requires R2).
    for suf, repl in _STEP3_SUFFIXES:
        if word.endswith(suf):
            if len(word) - len(suf) >= r1:
                if suf == "ative":
                    if len(word) - len(suf) >= r2:
                        word = word[: -len(suf)]
                else:
                    word = word[: -len(suf)] + repl
            break

    # Step 4 (suffix in R2).
    for suf in _STEP4_SUFFIXES:
        if word.endswith(suf):
            if len(word) - len(suf) >= r2:
                if suf == "ion":
                    if len(word) >= 4 and word[-4] in "st":
                        word = word[:-3]
                else:
                    word = word[: -len(suf)]
            break

    # Step 5.
    if word.endswith("e"):
        if len(word) - 1 >= r2:
            word = word[:-1]
        elif len(word) - 1 >= r1 and not _ends_short_syllable(word[:-1]):
            word = word[:-1]
    elif word.endswith("ll") and len(word) - 1 >= r2:
        word = word[:-1]

    return word.replace("Y", "y")
