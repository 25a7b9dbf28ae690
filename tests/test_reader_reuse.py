"""Live SegmentReaders are shared by every searcher of a process: a searcher
opened after a commit (or a serving actor's refresh) reuses the readers of
unchanged segments, opens only new ones, and answers exactly as a searcher
whose readers are all fresh."""

import gc
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rayfts.index import manifest as mf
from rayfts.index import segment
from rayfts.index.catalog import IndexCatalog
from rayfts.index.schema import FieldDef, IndexSchema
from rayfts.index.segment import SegmentReader
from rayfts.query.searcher import Searcher

SCHEMA = IndexSchema([
    FieldDef("body", "text", tokenizer="default", record="position"),
    FieldDef("id", "text", indexed=False),
    FieldDef("size", "u64", indexed=True, stored=True, fast=True),
    FieldDef("facet", "text", tokenizer="raw", record="basic"),
])
WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "theta", "kappa"]

STRING_QUERIES = ["alpha", "alpha gamma", "+alpha -beta", '"alpha beta"', "zzz"]
QUERIES = STRING_QUERIES + [
    {"bool": {"should": [{"term": {"body": "delta"}}, {"term": {"body": "kappa"}}]}},
    {"bool": {"must": [{"term": {"body": "beta"}}],
              "must_not": [{"term": {"body": "theta"}}]}},
    {"phrase": {"body": {"terms": ["gamma", "delta"]}}},
    {"fuzzy": {"body": {"value": "zeda", "distance": 1}}},
    {"fuzzy": {"body": {"value": "alpah", "distance": 2, "transposition": True}}},
    {"range": {"size": {"gte": 3, "lt": 7}}},
    {"range": {"body": {"gte": "delta", "lte": "gamma"}}},
]


def _docs(rng, commit: int, n: int) -> list[dict]:
    return [{
        "id": f"c{commit}-{i}",
        "body": " ".join(rng.choice(WORDS, int(rng.integers(2, 7)))),
        "size": int(rng.integers(0, 10)),
        "facet": f"/top/{WORDS[int(rng.integers(0, 3))]}",
    } for i in range(n)]


def _answers(s: Searcher) -> dict:
    """Every read path's answer to every query, scores to 6 dp."""
    out = {}
    for q in QUERIES:
        key = repr(q)
        out[key, "top_k"] = [(h.doc_id, round(h.score, 6)) for h in s.top_k(q, 7)]
        out[key, "count"] = s.count(q)
        res = s.search({"query": q, "limit": 5, "facets": {"facet": ["/top"]}})
        out[key, "search"] = (res.hits, [(d.doc_id, round(d.score, 6), d.doc)
                                         for d in res.docs], res.facets)
    for q in STRING_QUERIES:
        out[q, "query"] = [(h["doc"], round(h["score"], 6))
                           for h in s.query_string(q, 6)]
    return out


@pytest.fixture()
def count_opens(monkeypatch):
    """A list that grows by one path per SegmentReader constructed."""
    opened = []
    init = SegmentReader.__init__

    def counting(self, path, schema):
        opened.append(path)
        init(self, path, schema)

    monkeypatch.setattr(SegmentReader, "__init__", counting)
    return opened


def test_reuse_matches_fresh_searcher_across_commits_and_merges(tmp_path, count_opens):
    cat = IndexCatalog(str(tmp_path / "live"), auto_merge_min=3)
    h = cat.create_index("r", SCHEMA)
    rng = np.random.default_rng(7)
    held: list[str] = []
    merges = 0
    for c in range(12):
        h.add_documents(_docs(rng, c, 4))
        segs = [s.segment_id for s in h.manifest.ordered_segments()]
        new = [s for s in segs if s not in held]
        merged = len(segs) < len(held) + 1
        merges += merged
        # the first read after the commit opens only what the commit added:
        # its own segment, or each segment an auto-merge wrote
        count_opens.clear()
        want_string = h.query("alpha", 6)
        assert len(count_opens) == len(new), (c, count_opens, new)
        if not merged:
            assert len(count_opens) == 1
        held = segs
        live = h.searcher()
        got = _answers(live)
        assert len(count_opens) == len(new)  # nothing else opened on reads
        assert [r.path for r in live.readers] == [
            mf.segment_path(h.path, s) for s in segs]
        # reference: a copy of the index, every reader opened fresh
        ref_dir = str(tmp_path / f"ref-{c}")
        shutil.copytree(h.path, ref_dir)
        count_opens.clear()
        fresh = Searcher(ref_dir)
        assert len(count_opens) == len(segs)
        assert got == _answers(fresh), c
        assert want_string == fresh.query_string("alpha", 6)
        del fresh
        shutil.rmtree(ref_dir)
    assert merges >= 2


def test_merged_away_readers_leave_the_cache(tmp_path):
    cat = IndexCatalog(str(tmp_path), auto_merge_min=3)
    h = cat.create_index("e", SCHEMA)
    rng = np.random.default_rng(3)
    for c in range(2):
        h.add_documents(_docs(rng, c, 3))
    old = h.searcher()
    before = {r.path for r in old.readers}
    h.add_documents(_docs(rng, 2, 3))  # the third commit merges all three
    assert len(h.manifest.segments) == 1
    assert not any(os.path.isdir(p) for p in before)
    new = h.searcher()
    del old
    gc.collect()
    live = {r.path for r in list(segment._LIVE_READERS.values())
            if r.path.startswith(h.path + os.sep)}
    assert live == {r.path for r in new.readers}
    assert all(os.path.isdir(p) for p in live)


def test_dropped_catalog_frees_its_readers(tmp_path):
    """A catalog, its handles and their cached searchers form no
    reference cycle: once they are dropped, their readers leave the cache
    without the cyclic garbage collector."""
    def live() -> int:
        return sum(r.path.startswith(str(tmp_path) + os.sep)
                   for r in list(segment._LIVE_READERS.values()))

    gc.collect()
    gc.disable()
    try:
        cat = IndexCatalog(str(tmp_path), auto_merge_min=0)
        h = cat.create_index("d", SCHEMA)
        rng = np.random.default_rng(5)
        for c in range(2):
            h.add_documents(_docs(rng, c, 3))
        assert h.query("alpha beta gamma")
        assert cat.open("d") is h and live() == 2
        del cat, h
        assert live() == 0
    finally:
        gc.enable()


def _write_docs(path: str, docs: list[dict]) -> str:
    pq.write_table(pa.Table.from_pylist(docs), path)
    return path


def test_rebuilt_index_at_same_path_opens_new_readers(ray_session, tmp_path):
    """A planned unit's segment id hashes its file path and row spans, so
    an index deleted and rebuilt at the same path from the same Parquet
    path (rewritten with new rows of the same count) reuses every segment
    directory name while a searcher of the old index is still alive."""
    from rayfts.index.build import build_index

    schema = IndexSchema([
        FieldDef("text", "text", tokenizer="default", record="position"),
        FieldDef("doc_id", "u64", indexed=False, stored=True, fast=True),
    ])
    cat = IndexCatalog(str(tmp_path / "cat"))
    path = os.path.join(cat.root, "idx")
    src = str(tmp_path / "docs.parquet")
    kw = dict(content_col="text", key_cols=["doc_id"], num_segments=1)
    build_index(_write_docs(src, [
        {"doc_id": i, "text": f"old words number{i}"} for i in range(6)]),
        path, schema, **kw)
    old = Searcher(path)
    assert old.count("old") == 6
    cat.delete_index("idx")
    build_index(_write_docs(src, [
        {"doc_id": 100 + i, "text": f"new words number{i}"} for i in range(6)]),
        path, schema, **kw)
    ids = [s.segment_id for s in mf.read_manifest(path).segments]
    assert ids == [s.segment_id for s in old.segments] and len(ids) == 1
    fresh = Searcher(path)
    assert not {id(r) for r in fresh.readers} & {id(r) for r in old.readers}
    assert fresh.count("old") == 0
    assert fresh.count("new") == 6
    assert sorted(h["doc"]["doc_id"][0] for h in fresh.query_string("words", 10)) == [
        100 + i for i in range(6)]
    assert old.count("old") == 6  # the old searcher keeps its own readers


def test_service_refresh_opens_only_new_segments(ray_session, tmp_path):
    """After ``add_segments``, ``SearchService.refresh`` keeps each actor's
    readers of the segments it already served and opens only the rest;
    results equal the in-process searcher and the hot-tier cache empties."""
    import ray

    from rayfts.index.segment import build_segment
    from rayfts.query.serve import SearchService

    def reader_ids(actor) -> dict[str, int]:
        return ray.get(actor.__ray_call__.remote(lambda a: {
            s.segment_id: id(r) for s, r in zip(a.searcher.segments, a.searcher.readers)}))

    cat = IndexCatalog(str(tmp_path), auto_merge_min=0)
    h = cat.create_index("svc", SCHEMA)
    rng = np.random.default_rng(11)
    for c in range(4):
        h.add_documents(_docs(rng, c, 5))
    queries = ["alpha", "beta gamma", "+delta -zeta", '"alpha beta"',
               {"fuzzy": {"body": {"value": "kapa", "distance": 1}}}]
    svc = SearchService(h.path, num_actors=2, hot_replicas=1)
    try:
        actors = svc.actors + svc.hot_actors
        before = [reader_ids(a) for a in actors]
        svc.search_many(["alpha"] * 3, limit=5)  # tier-eligible: fills the cache
        assert ray.get(svc.hot_actors[0].cache_stats.remote()) > 0
        infos = []
        for c in range(4, 7):
            seg_id = f"seg-extra-{c}"
            infos.append(build_segment(
                pa.Table.from_pylist(_docs(rng, c, 5)), SCHEMA, seg_id,
                mf.segment_path(h.path, seg_id)))
        h.add_segments(infos)
        svc.refresh()
        assert ray.get(svc.hot_actors[0].cache_stats.remote()) == 0
        kept = 0
        for a, was in zip(actors, before):
            now = reader_ids(a)
            held = [s for s in now if s in was]
            assert [now[s] for s in held] == [was[s] for s in held]
            kept += len(held)
        assert kept == 2 + 4  # the first shard's two segments, the replica's four
        assert sum(len(reader_ids(a)) for a in svc.actors) == len(h.manifest.segments)
        local = Searcher(h.path)
        for q in queries:
            want = [(round(x.score, 6), x.doc_id) for x in local.top_k(q, 10)]
            assert [(round(s, 6), g) for s, g in svc.search(q, limit=10)] == want, q
        many = svc.search_many(queries, limit=10)
        assert many == [svc.search(q, limit=10) for q in queries]
    finally:
        svc.shutdown()
