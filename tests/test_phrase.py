"""Phrase queries against a brute force over the raw documents.

The brute force analyzes each document with ``Analyzer.tokens_positions``,
finds every start position where the phrase's terms sit at their offsets
and scores the counts with ``bm25``; it reads no postings and no executor
code. One segment holds more than 2^15 documents and one document more
than 2^16 tokens, so ``docid << 32 | position`` keys packed into fewer
bits alias or go negative and the answers change."""

import shutil

import numpy as np
import pytest

from rayfts.analysis.analyzer import Analyzer
from rayfts.codec.fieldnorm import FieldNormCodec
from rayfts.index.catalog import IndexCatalog
from rayfts.index.merge import merge_index
from rayfts.index.schema import FieldDef, IndexSchema
from rayfts.query import bm25
from rayfts.query.ast import Phrase
from rayfts.query.searcher import Searcher

SCHEMA = IndexSchema([FieldDef("body", "text", tokenizer="default", record="position")])
ANALYZER = Analyzer("default")
VOCAB = ["the", "a", "of", "cat", "dog", "sat", "on", "mat", "zebra", "quark"]
WEIGHTS = np.array([30, 20, 10, 8, 8, 6, 6, 5, 4, 3], dtype=float)
LONG = "x" * 45  # over RemoveLong's 40-byte limit: dropped, keeps its position
BIG_SEGMENT = 33_000  # docids past 2^15
LONG_DOC = 70_000  # positions past 2^16

# (terms, offsets) of each phrase; None = consecutive
PHRASES = [
    (("the", "zebra"), None),  # rarest term last
    (("of", "quark", "the"), None),  # rarest term in the middle
    (("the", "dog", "quark"), None),
    (("the", "the"), None),
    (("a", "a", "a"), None),  # overlapping runs count each start
    (("the", "cat"), None),
    (("alpha", "beta"), None),
    (("alpha", "beta"), (0, 2)),  # analyzer gap
    (("omega", "psi"), None),  # only across a document boundary
    (("cat",), None),
    (("zebra",), (3,)),
    (("the", "nope"), None),
]
GAP_QUERY = f'"alpha {LONG} beta"'


def _words(rng, n):
    return list(rng.choice(VOCAB, n, p=WEIGHTS / WEIGHTS.sum()))


def _batches(rng):
    """Uneven commits: special documents in small segments, many short
    documents in one big segment and one very long document."""
    def random_docs(n, lo, hi):
        return [" ".join(_words(rng, int(rng.integers(lo, hi)))) for _ in range(n)]

    special = []
    for _ in range(12):
        w = _words(rng, 6)
        special += [
            " ".join(w[:2] + ["a"] * int(rng.integers(3, 6)) + w[2:]),
            " ".join(w[:3] + ["alpha", LONG, "beta"] + w[3:]),
            " ".join(w[:3] + ["alpha", "beta"] + w[3:]),
            " ".join(w[:3] + ["beta", LONG, "alpha"]),
            " ".join(w[:4] + ["omega"]),  # ends with omega ...
            " ".join(["psi"] + w[4:]),  # ... the next doc starts with psi
        ]
    long_doc = " ".join(_words(rng, LONG_DOC))
    return [
        random_docs(40, 1, 30), special[:36], random_docs(7, 1, 12),
        random_docs(BIG_SEGMENT, 1, 5), special[36:], [long_doc, "psi the cat"],
        random_docs(25, 1, 30),
    ]


class BruteForce:
    """Phrase matches and BM25 scores from the raw texts alone."""

    def __init__(self, texts: list[str]):
        self.docs = []  # per doc: (term -> its positions, position -> term)
        lens = []
        for text in texts:
            toks, poss = ANALYZER.tokens_positions(text)
            by_term: dict[str, list[int]] = {}
            for t, p in zip(toks, poss):
                by_term.setdefault(t, []).append(p)
            self.docs.append((by_term, dict(zip(poss, toks))))
            lens.append(len(toks))
        codec = FieldNormCodec()
        self.dls = codec.decode(codec.encode(np.array(lens)))
        self.avgdl = sum(lens) / len(texts)
        self.df: dict[str, int] = {}
        for by_term, _ in self.docs:
            for t in by_term:
                self.df[t] = self.df.get(t, 0) + 1

    def starts(self, doc: int, terms, offsets) -> list[int]:
        by_term, at = self.docs[doc]
        if any(t not in by_term for t in terms):
            return []
        rel = [o - offsets[0] for o in offsets]
        return [p for p in by_term[terms[0]]
                if all(at.get(p + r) == t for t, r in zip(terms, rel))]

    def matches(self, terms, offsets) -> tuple[np.ndarray, np.ndarray]:
        """(docids ascending, scores) of the phrase."""
        offsets = offsets or tuple(range(len(terms)))
        tfs = np.array([len(self.starts(d, terms, offsets)) for d in range(len(self.docs))])
        docids = np.flatnonzero(tfs)
        idf = sum(bm25.idf(len(self.docs), self.df.get(t, 0)) for t in terms)
        return docids, bm25.score(tfs[docids], self.dls[docids], self.avgdl, idf)


def _top(docids, scores, k):
    order = np.lexsort((docids, -scores))[:k]
    return [(int(docids[i]), round(float(scores[i]), 6)) for i in order]


def _check(s: Searcher, oracle: BruteForce, q, terms, offsets):
    want_d, want_s = oracle.matches(terms, offsets)
    assert s.count(q) == want_d.size, (terms, offsets)
    got_d, got_s = s.matches(q)
    order = np.argsort(got_d)
    assert got_d[order].tolist() == want_d.tolist(), (terms, offsets)
    assert np.round(got_s[order], 6).tolist() == np.round(want_s, 6).tolist()
    for k in (1, 10, want_d.size + 3):
        got = [(h.doc_id, round(h.score, 6)) for h in s.top_k(q, k)]
        assert got == _top(want_d, want_s, k), (terms, offsets, k)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    rng = np.random.default_rng(20261019)
    cat = IndexCatalog(str(tmp_path_factory.mktemp("phrase")), auto_merge_min=0)
    h = cat.create_index("p", SCHEMA)
    texts = []
    for batch in _batches(rng):
        h.add_documents([{"body": t} for t in batch])
        texts += batch
    return h.path, BruteForce(texts)


def test_corpus_covers_every_case(corpus):
    """The cases the phrase test relies on are present in the corpus."""
    _, oracle = corpus
    df = oracle.df
    for terms, _ in PHRASES[:3]:
        assert min(terms, key=df.get) != terms[0]
    assert any(len(oracle.starts(d, ("a", "a", "a"), (0, 1, 2))) > 1
               for d in range(len(oracle.docs)))
    assert any(0 in oracle.starts(d, ("the", "cat"), (0, 1)) for d in range(len(oracle.docs)))
    # a match past 2^16 in the long document
    long_doc = max(range(len(oracle.docs)), key=lambda d: len(oracle.docs[d][1]))
    assert max(oracle.docs[long_doc][1]) >= LONG_DOC - 1
    assert max(oracle.starts(long_doc, ("the", "cat"), (0, 1))) > 1 << 16
    # omega ends a document and psi starts the next one, never adjacent
    ends = [d for d in range(len(oracle.docs) - 1)
            if oracle.docs[d][1] and oracle.docs[d][1][max(oracle.docs[d][1])] == "omega"
            and oracle.docs[d + 1][1].get(0) == "psi"]
    assert ends and oracle.matches(("omega", "psi"), None)[0].size == 0
    gap_terms, gap_offsets = ANALYZER.tokens_positions(GAP_QUERY.strip('"'))
    assert (tuple(gap_terms), tuple(gap_offsets)) == (("alpha", "beta"), (0, 2))


def _check_all(s: Searcher, oracle: BruteForce):
    for terms, offsets in PHRASES:
        _check(s, oracle, Phrase("body", terms, offsets), terms, offsets)
    _check(s, oracle, GAP_QUERY, ("alpha", "beta"), (0, 2))


def test_phrases_match_brute_force(corpus):
    path, oracle = corpus
    s = Searcher(path)
    assert len(s.readers) == 7
    _check_all(s, oracle)


def test_phrases_match_brute_force_after_merge(corpus, ray_session, tmp_path):
    path, oracle = corpus
    merged = str(tmp_path / "merged")
    shutil.copytree(path, merged)
    assert len(merge_index(merged, group_size=4).segments) == 2
    _check_all(Searcher(merged), oracle)


def test_position_cache_stays_within_budget(tmp_path):
    """A posting cache far smaller than the phrases' lists: the cached
    bytes, positions included, never exceed the budget, evicted lists
    drop their positions, and the answers stay those of the brute force."""
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(24)]
    texts = [" ".join(rng.choice(words, int(rng.integers(2, 40)))) for _ in range(300)]
    h = IndexCatalog(str(tmp_path), auto_merge_min=0).create_index("m", SCHEMA)
    h.add_documents([{"body": t} for t in texts[:180]])
    h.add_documents([{"body": t} for t in texts[180:]])
    oracle = BruteForce(texts)
    s = Searcher(h.path)
    budget = 4096
    for r in s.readers:
        r.postings_cache_max_bytes = budget
    seen = []
    for _ in range(60):
        terms = tuple(str(w) for w in rng.choice(words, int(rng.integers(1, 4))))
        _check(s, oracle, Phrase("body", terms), terms, None)
        for r in s.readers:
            cached = list(r._postings_cache.values())
            assert r._postings_cached_bytes == sum(pl.nbytes for pl in cached) <= budget
            seen += [pl for pl in cached if pl.positions is not None]
    live = {id(pl) for r in s.readers for pl in r._postings_cache.values()}
    evicted = [pl for pl in seen if id(pl) not in live]
    assert evicted and all(pl.positions is None for pl in evicted)
