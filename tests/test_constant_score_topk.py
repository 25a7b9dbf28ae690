"""Constant-score queries (fuzzy, regex, range, all) against a brute-force
reference that never touches the searcher's term dictionary: each
segment's own terms are matched one by one with ``_levenshtein_within``,
Python ``re`` (on patterns where RE2 and ``re`` agree) or plain string
comparison. Top-k must be the k smallest matching docids, and a top-level
constant-score top-k must visit segments only until it holds k matches."""

import re

import numpy as np
import pytest

from rayfts.index.catalog import IndexCatalog
from rayfts.index.schema import FieldDef, IndexSchema
from rayfts.query.ast import All, Bool, Fuzzy, Range, Regex, Term
from rayfts.query.exec import _levenshtein_within

# letters only (so the default tokenizer keeps each word whole), several
# of them multi-byte in UTF-8
ALPHABET = list("abcde") + ["é", "ß", "ж", "中"]


def _word(rng, lo=1, hi=6) -> str:
    return "".join(rng.choice(ALPHABET, size=int(rng.integers(lo, hi + 1))))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    rng = np.random.default_rng(20261018)
    vocab = sorted({_word(rng) for _ in range(60)})
    cat = IndexCatalog(str(tmp_path_factory.mktemp("cs")), auto_merge_min=0)
    h = cat.create_index("cs", IndexSchema([
        FieldDef("body", "text", tokenizer="default", record="basic"),
        FieldDef("n", "u64", indexed=True, stored=True, fast=True),
    ]))
    for size in (7, 1, 12, 5, 9, 3):
        # each segment draws from its own slice of the vocabulary, so most
        # queries miss some segments entirely
        own = rng.choice(vocab, size=int(rng.integers(4, 12)), replace=False)
        seg = [{"body": " ".join(rng.choice(own, size=int(rng.integers(1, 5)))),
                "n": int(rng.integers(0, 30))} for _ in range(size)]
        h.add_documents(seg)
    s = h.searcher()
    assert len(s.readers) == 6
    return s, vocab, rng


def _reference(s, q) -> list[np.ndarray]:
    """Matching local docids per segment, brute force."""
    if isinstance(q, All):
        return [np.arange(r.num_docs) for r in s.readers]
    out = []
    for r in s.readers:
        if isinstance(q, Range) and q.field == "n":
            vals = r.store()["n"].to_pylist()
            out.append(np.array([
                i for i, v in enumerate(vals)
                if (q.gte is None or v >= q.gte) and (q.gt is None or v > q.gt)
                and (q.lte is None or v <= q.lte) and (q.lt is None or v < q.lt)],
                dtype=np.int64))
            continue
        terms = r.term_dict(q.field)["terms_pa"].to_pylist()
        if isinstance(q, Fuzzy):
            hit = [_levenshtein_within(q.value, t, q.distance, q.transposition)
                   for t in terms]
        elif isinstance(q, Regex):
            hit = [re.fullmatch(q.pattern, t) is not None for t in terms]
        else:
            hit = [(q.gte is None or t >= q.gte) and (q.gt is None or t > q.gt)
                   and (q.lte is None or t <= q.lte) and (q.lt is None or t < q.lt)
                   for t in terms]
        lists = [r.postings_by_ordinal(q.field, o).docids
                 for o, h in enumerate(hit) if h]
        out.append(np.unique(np.concatenate(lists)) if lists
                   else np.empty(0, np.int64))
    return out


def _edit(rng, w: str) -> str:
    """``w`` with up to two random edits (substitute, insert, delete,
    swap), or an unrelated string."""
    op = int(rng.integers(0, 6))
    w = list(w)
    for _ in range(int(rng.integers(1, 3))):
        i = int(rng.integers(0, len(w) + 1))
        c = str(rng.choice(ALPHABET))
        if op == 0 and i < len(w):
            w[i] = c
        elif op == 1:
            w.insert(i, c)
        elif op == 2 and i < len(w) and len(w) > 1:
            del w[i]
        elif op == 3 and i + 1 < len(w):
            w[i], w[i + 1] = w[i + 1], w[i]
        elif op == 5:
            return "xyz" + "".join(w)  # matches nothing
    return "".join(w)


def _queries(rng, vocab) -> list:
    qs = [All()]
    for _ in range(120):
        w = str(rng.choice(vocab))
        qs.append(Fuzzy("body", _edit(rng, w), int(rng.integers(0, 3)),
                        bool(rng.integers(0, 2))))
    for _ in range(40):
        w, w2 = str(rng.choice(vocab)), str(rng.choice(vocab))
        k = int(rng.integers(1, len(w) + 1))
        qs.append(Regex("body", [
            f"{w[:k]}.*", f".*{w[-k:]}", f"[{w}]+", f"{w}|{w2}",
            f"{w[0]}.{{1,3}}", f"(?:{w[:k]})?{w2[-1]}.*", "x.*"][int(rng.integers(0, 7))]))
    for _ in range(20):
        a, b = sorted(str(x) for x in rng.choice(vocab, size=2))
        kind = int(rng.integers(0, 3))
        qs.append(Range("body", gte=a, lt=b) if kind == 0 else
                  Range("body", gt=a, lte=b) if kind == 1 else Range("body", gte=b))
    for _ in range(20):
        a = int(rng.integers(0, 30))
        qs.append(Range("n", gte=a, lt=a + int(rng.integers(0, 10))))
    qs.append(Range("n", gt=100))  # matches nothing
    return qs


def test_constant_score_matches_brute_force(corpus):
    s, vocab, rng = corpus
    starts = s._starts
    for q in _queries(rng, vocab):
        per_seg = _reference(s, q)
        want = np.concatenate([d.astype(np.int64) + starts[i]
                               for i, d in enumerate(per_seg)])
        assert s.count(q) == want.size, q
        gids, scores = s.matches(q)
        assert sorted(gids.tolist()) == want.tolist() and (scores == 1.0).all(), q
        cum = np.cumsum([d.size for d in per_seg])
        limits = {0, 1, 2, int(want.size), int(want.size) + 3, *cum.tolist()}
        for limit in sorted(limits):
            s.execute_calls = 0
            hits = s.top_k(q, limit)
            assert [h.doc_id for h in hits] == want[:limit].tolist(), (q, limit)
            assert all(h.score == 1.0 for h in hits), (q, limit)
            # segments are visited in docid order until k matches are held
            reached = np.flatnonzero(cum >= limit)
            visits = 0 if limit == 0 else (
                int(reached[0]) + 1 if reached.size else len(s.readers))
            assert s.execute_calls == visits, (q, limit)


def test_expansion_reaches_every_path(corpus):
    """Nested clauses, must_not, facets/sort (all-segment evaluation) and a
    caller-supplied ``stats`` all see the searcher's expansion."""
    s, vocab, _rng = corpus
    fz = Fuzzy("body", str(vocab[3]), 1)
    rx = Regex("body", f"{vocab[5][0]}.*")
    ref = {}
    for q in (fz, rx):
        per_seg = _reference(s, q)
        ref[q] = {int(d) + int(s._starts[i]) for i, x in enumerate(per_seg) for d in x}
    assert s.count(Bool(should=[fz, rx])) == len(ref[fz] | ref[rx])
    assert s.count(Bool(must=[fz, rx])) == len(ref[fz] & ref[rx])
    assert s.count(Bool(must=[All()], must_not=[rx])) == s.n_docs - len(ref[rx])
    res = s.search({"query": {"fuzzy": {"body": {"value": fz.value, "distance": 1}}},
                    "limit": 100, "sort_by": "n", "facets": {"n": [""]}})
    assert {d.doc_id for d in res.docs} == ref[fz]
    assert sum(f["count"] for f in res.facets) == len(ref[fz])
    stats = s.stats_for(Term("body", "unused"))
    assert [h.doc_id for h in s.top_k(rx, 5, stats=stats)] == sorted(ref[rx])[:5]
