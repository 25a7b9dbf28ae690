"""Seeded query streams over the synthetic code corpus.

Terms are drawn head-to-tail: a vocabulary rank is sampled log-uniformly,
so head words (``the``, ``match``) and tail identifiers both appear. The
vocabulary and the phrase bigrams are counted by the benchmark itself
from the generated documents, not read back from the index.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter

import numpy as np

from .tracing import SHAPES

# shape mix per block of 20 queries: 25% term, 20% OR, 15% must/must_not,
# 10% each phrase, field:term, fuzzy and absent. These weights are an
# assumption, not measured traffic (no query log of the reference exists):
# plain words and short OR queries lead, as in a search box, and every
# other shape gets 10-15% so that each has enough queries in a run for its
# own p50.
SHAPE_COUNTS = (5, 4, 3, 2, 2, 2, 2)
BLOCK = tuple(shape for shape, n in zip(SHAPES, SHAPE_COUNTS) for _ in range(n))
# per block, the first query of each of these shapes also fetches stored
# fields and a snippet: 10% of queries, an assumed share (a results page
# for plain searches) kept small so that exec and decode work, not the
# document store, dominate the query p50
FETCH_SHAPES = ("term", "or")
LANGS = ("py", "rs", "js", "go", "java", "c")
_WORD = re.compile(r"[^\W_]+")


class Vocabulary:
    """Words of the corpus by descending frequency, and the adjacent word
    pairs seen in it (with repetition, so frequent pairs are drawn more)."""

    def __init__(self, contents: list[str | None]):
        counts: Counter[str] = Counter()
        pairs: list[tuple[str, str]] = []
        for text in contents:
            if not text:
                continue
            words = [w for w in _WORD.findall(text.lower())
                     if w.isascii() and len(w) >= 2]
            counts.update(words)
            pairs.extend(zip(words[:-1], words[1:]))
        if not counts or not pairs:
            raise ValueError("corpus sample too small for a vocabulary")
        self.words = [w for w, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
        self.known = set(self.words)
        self.pairs = pairs

    def word(self, ranks: "RankSequence", min_len: int = 1) -> str:
        n = len(self.words)
        while True:
            rank = int(math.exp(ranks.next() * math.log(n)))
            w = self.words[min(rank, n) - 1]
            if len(w) >= min_len:
                return w


class RankSequence:
    """Log-uniform rank quantiles from a golden-ratio sequence with a
    seeded start: every stretch of draws covers head and tail evenly, so
    two seeds differ in which words they draw, not in how many head words
    they happen to draw."""

    _STEP = (math.sqrt(5.0) - 1.0) / 2.0

    def __init__(self, rng: np.random.Generator):
        self._u = float(rng.random())

    def next(self) -> float:
        self._u = (self._u + self._STEP) % 1.0
        return self._u


def _shape_query(shape: str, rng: np.random.Generator, ranks: RankSequence,
                 vocab: Vocabulary):
    if shape == "term":
        return vocab.word(ranks)
    if shape == "or":
        return " ".join(vocab.word(ranks) for _ in range(int(rng.integers(2, 4))))
    if shape == "and":
        a, b = vocab.word(ranks), vocab.word(ranks)
        return f"+{a} +{b}" if rng.random() < 0.5 else f"{a} -{b}"
    if shape == "phrase":
        a, b = vocab.pairs[int(ranks.next() * len(vocab.pairs))]
        return f'"{a} {b}"'
    if shape == "field":
        if rng.random() < 0.7:
            return f"content:{vocab.word(ranks)}"
        return f"lang:{LANGS[int(rng.integers(len(LANGS)))]}"
    if shape == "fuzzy":
        w = vocab.word(ranks, min_len=4)
        i = int(rng.integers(len(w)))
        c = "abcdefghijklmnopqrstuvwxyz"[int(rng.integers(26))]
        if c == w[i]:
            c = "q" if c != "q" else "z"
        return {"fuzzy": {"content": {"value": w[:i] + c + w[i + 1:], "distance": 1}}}
    if shape == "absent":
        while True:
            w = "zq" + "".join("abcdefghijklmnopqrstuvwxyz"[int(x)]
                               for x in rng.integers(0, 26, 6))
            if w not in vocab.known:
                return w
    raise ValueError(shape)


def query_key(q) -> str:
    return json.dumps(q, sort_keys=True) if isinstance(q, dict) else q


def stream(rng: np.random.Generator, vocab: Vocabulary, exclude=frozenset()):
    """Endless seeded stream of ``(shape, query, fetch)``; ``fetch`` marks
    the queries that also fetch stored fields and a snippet. Every block of
    ``len(BLOCK)`` queries holds the shapes and fetches in exactly the
    planned shares, in a seeded order. A query whose key is in ``exclude``
    is drawn again with the same shape (warm-up disjointness), so blocks
    stay whole and aligned."""
    ranks = RankSequence(rng)
    while True:
        fetched = set()
        for j in rng.permutation(len(BLOCK)):
            shape = BLOCK[int(j)]
            q = _shape_query(shape, rng, ranks, vocab)
            while query_key(q) in exclude:
                q = _shape_query(shape, rng, ranks, vocab)
            fetch = shape in FETCH_SHAPES and shape not in fetched
            fetched.add(shape)
            yield shape, q, fetch


def take(it, n: int) -> list:
    return [next(it) for _ in range(n)]
