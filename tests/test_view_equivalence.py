"""One evaluation over a searcher's ``SegmentsView`` answers exactly as a
per-segment evaluation: seeded random ``Bool`` trees (depth up to 3, over
term, phrase, fuzzy, regex, range and all leaves) on a catalog index of
uneven segments and on a searcher over a non-prefix subset of them, and
top-level pure ORs of terms, which take the pruned union. The reference runs ``execute`` on each segment, maps docids to global ids and
sorts by (score desc, docid asc) on its own."""

import numpy as np
import pytest

import rayfts.query.searcher as searcher_mod

from rayfts.index.catalog import IndexCatalog
from rayfts.index.schema import FieldDef, IndexSchema
from rayfts.query.ast import All, Bool, Fuzzy, Phrase, Range, Regex, Search, Term
from rayfts.query.exec import execute
from rayfts.query.searcher import Searcher

WORDS = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "tau", "kappa"]
SIZES = (9, 1, 23, 4, 14, 2)  # docs per segment
FACETS = {"facet": ["/top"], "size": [""]}


@pytest.fixture(scope="module")
def layouts(tmp_path_factory):
    rng = np.random.default_rng(20261019)
    cat = IndexCatalog(str(tmp_path_factory.mktemp("view")), auto_merge_min=0)
    h = cat.create_index("v", IndexSchema([
        FieldDef("body", "text", tokenizer="default", record="position"),
        FieldDef("size", "u64", indexed=True, stored=True, fast=True),
        FieldDef("facet", "text", tokenizer="raw", record="basic"),
    ]))
    for n in SIZES:
        # short docs over a small vocabulary: many equal scores, so ties
        # sit at the k-th place
        h.add_documents([{
            "body": " ".join(rng.choice(WORDS, int(rng.integers(1, 6)))),
            "size": int(rng.integers(0, 6)),
            "facet": f"/top/{WORDS[int(rng.integers(0, 3))]}",
        } for _ in range(n)])
    full = h.searcher()
    ids = [s.segment_id for s in full.segments]
    subset = Searcher(h.path, segment_ids=[ids[0], ids[2], ids[3], ids[5]])
    assert len(full.readers) == len(SIZES) and len(subset.readers) == 4
    return [full, subset], rng


def _leaf(rng):
    kind = int(rng.integers(0, 7))
    w = str(rng.choice(WORDS + ["absent"]))
    if kind <= 1:
        return Term("body", w)
    if kind == 2:
        return Phrase("body", (w, str(rng.choice(WORDS))))
    if kind == 3:
        i = int(rng.integers(0, len(w)))
        return Fuzzy("body", w[:i] + "x" + w[i + 1:], int(rng.integers(1, 3)),
                     bool(rng.random() < 0.5))
    if kind == 4:
        return Regex("body", f"{w[0]}.*")
    if kind == 5:
        if rng.random() < 0.5:
            a = int(rng.integers(0, 6))
            return Range("size", gte=a, lt=a + int(rng.integers(1, 4)))
        a, b = sorted(rng.choice(WORDS, 2, replace=False))
        return Range("body", gte=str(a), lte=str(b))
    return All()


def _union(rng):
    """A pure OR of terms, the shape ``top_k_term_union`` answers: two
    fields, absent words and repeated clauses."""
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        if rng.random() < 0.3:  # no facet value holds "delta"
            terms.append(Term("facet", f"/top/{rng.choice(WORDS[:4])}"))
        else:
            terms.append(Term("body", str(rng.choice(WORDS + ["absent"]))))
    if rng.random() < 0.3:
        terms.append(terms[int(rng.integers(0, len(terms)))])
    return Bool(should=terms)


def _query(rng, depth: int = 3):
    if depth == 3 and rng.random() < 0.2:
        return _union(rng)
    if depth == 0 or rng.random() < 0.25:
        return _leaf(rng)

    def some(hi):
        return [_query(rng, depth - 1) for _ in range(int(rng.integers(0, hi + 1)))]

    return Bool(must=some(2), should=some(3), must_not=some(1))


def _reference(s, q):
    """Per-segment ``execute``: (local docid parts, global docids, scores)."""
    stats = s.stats_for(q)
    parts = [(si, *execute(q, r, stats)) for si, r in enumerate(s.readers)]
    gids = np.concatenate([d.astype(np.int64) + s._starts[si] for si, d, _ in parts])
    scores = np.concatenate([sc for _, _, sc in parts])
    return parts, gids, scores


def _ranked(gids, keys, k):
    order = np.lexsort((gids, -keys))[:k]
    return [(int(gids[i]), round(float(keys[i]), 6)) for i in order]


def _hits(hits):
    return [(h.doc_id, round(h.score, 6)) for h in hits]


def test_view_matches_per_segment_evaluation(layouts):
    searchers, rng = layouts
    checked = 0
    for s in searchers:
        for _ in range(75):
            q = _query(rng)
            parts, gids, scores = _reference(s, q)
            n = int(gids.size)
            checked += n > 0
            assert s.count(q) == n, q
            got_ids, got_scores = s.matches(q)
            assert got_ids.tolist() == gids.tolist(), q
            assert np.round(got_scores, 6).tolist() == np.round(scores, 6).tolist(), q
            for k in (0, 1, 10, n + 3):
                want = _ranked(gids, scores, k)
                assert _hits(s.top_k(q, k)) == want, (q, k)
                assert _hits(s._merge(parts, k)) == want, (q, k)

            if q == Bool():
                continue  # search() rejects an empty query
            res = s.search(Search(q, limit=7, facets=FACETS))
            assert _hits(res.docs) == _ranked(gids, scores, 7), q
            acc = {}
            for si, d, _ in parts:
                if d.size:
                    s._accumulate_facets(s.readers[si], d, FACETS, acc)
            want_facets = [{"term": t, "count": c}
                           for f in FACETS for t, c in sorted(acc.get(f, {}).items())]
            assert res.facets == want_facets, q
            assert [r for f in FACETS for r in s.facet_counts_by_field(q, FACETS)[f]] \
                == want_facets, q

            sizes = np.concatenate([r.fast_column("size")[d].astype(np.float64)
                                    for r, (_, d, _) in zip(s.readers, parts)])
            res = s.search(Search(q, limit=5, sort_by="size"))
            assert _hits(res.docs) == _ranked(gids, sizes, 5), q
    assert checked > 70  # most queries match something


def test_pure_or_runs_one_union_per_search(layouts, monkeypatch):
    """A pure OR of terms is one ``top_k_term_union`` call over the view
    however many segments the searcher holds (perfbench counts the calls
    as its pruned layer), and no ``execute``."""
    searchers, rng = layouts
    calls = {"union": 0, "execute": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(searcher_mod, "top_k_term_union",
                        counted("union", searcher_mod.top_k_term_union))
    monkeypatch.setattr(searcher_mod, "execute", counted("execute", searcher_mod.execute))
    for s in searchers:
        for q in (Term("body", "alpha"), _union(rng),
                  Bool(should=[Term("body", "beta"), Term("facet", "/top/alpha")])):
            calls.update(union=0, execute=0)
            s.top_k(q, 10)
            assert calls == {"union": 1, "execute": 0}, (q, len(s.readers))
