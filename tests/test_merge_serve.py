"""Actor-pool segment merging + query-serving actor pool."""

import os

import numpy as np
import pytest

from rayfts.index.build import build_index
from rayfts.index.merge import merge_index, merge_segment_group, merged_segment_id
from rayfts.index import manifest as mf
from rayfts.query.searcher import Searcher
from tests.test_build_ray import SF, doc_schema


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("merge") / "docs")
    build_index(f"{SF}/documents.parquet", path, doc_schema(),
                content_col="text", key_cols=["doc_id"], num_segments=6)
    return path


QUERIES = ["merge", "the", "spark window", "query AND batch", '"batch batch"']


def assert_fetch_parity(svc, local, queries):
    """``search(q, fetch=True)`` returns the hits of ``search_many([q])``
    and exactly the stored docs a local searcher returns for ``q``."""
    for q in queries:
        got = svc.search(q, limit=10, fetch=True)
        assert [(s, g) for s, g, _d in got] == svc.search_many([q], limit=10)[0], q
        assert [d for _s, _g, d in got] == [
            row["doc"] for row in local.query_string(q, 10)], q


def snapshot(path):
    s = Searcher(path)
    return {
        q: [(h["doc"]["doc_id"][0], round(h["score"], 12)) for h in s.query_string(q)]
        for q in QUERIES
    }


def test_merge_preserves_results_and_docids(built, ray_session, tmp_path):
    import shutil

    path2 = str(tmp_path / "copy")
    shutil.copytree(built, path2)
    before = snapshot(path2)
    m = merge_index(path2, group_size=3)
    assert len(m.segments) == 2
    after = snapshot(path2)
    assert before == after
    # global docids preserved across the swap
    s = Searcher(path2)
    gids, _ = s.matches("merge")
    s0 = Searcher(built)
    gids0, _ = s0.matches("merge")
    assert sorted(gids.tolist()) == sorted(gids0.tolist())


def test_merge_deterministic(built, ray_session, tmp_path):
    import hashlib
    import os
    import shutil

    outs = []
    man = mf.read_manifest(built)
    ids = [s.segment_id for s in man.ordered_segments()][:3]
    for trial, order in enumerate([ids, list(reversed(ids))]):
        p = str(tmp_path / f"t{trial}")
        shutil.copytree(built, p)
        merge_segment_group(p, man.schema.to_json(), order)
        seg = mf.segment_path(p, merged_segment_id(ids))
        digest = hashlib.sha256()
        for fname in ["postings.bin", "positions.bin", "terms.parquet"]:
            digest.update(open(os.path.join(seg, fname), "rb").read())
        outs.append(digest.hexdigest())
    assert outs[0] == outs[1]


def test_cli_merge_fixed_groups_and_log_policy(built, ray_session, tmp_path):
    """``rayfts merge`` on a fresh copy of the 6-segment index, once with
    fixed groups of 4 (one pass: 4 + 2) and once with --log-policy at the
    same group size (a second pass merges the two results): fewer
    segments, the same hits."""
    import shutil

    from rayfts.cli import main as cli_main

    assert len(mf.read_manifest(built).segments) == 6
    before = snapshot(built)
    for name, flags, want_segments in [
        ("fixed", ["--group-size", "4"], 2),
        ("log", ["--log-policy", "--min-merge", "2", "--group-size", "4"], 1),
    ]:
        path = str(tmp_path / name)
        shutil.copytree(built, path)
        assert cli_main(["merge", "--index", path] + flags) == 0
        assert len(mf.read_manifest(path).segments) == want_segments, name
        assert snapshot(path) == before, name


def test_search_service_matches_local(built, ray_session):
    from rayfts.query.serve import SearchService

    svc = SearchService(built, num_actors=3)
    local = Searcher(built)
    try:
        for q in QUERIES:
            remote_hits = svc.search(q, limit=10)
            local_hits = [(h.score, h.doc_id) for h in local.top_k(q, 10)]
            assert [(round(s, 12), g) for s, g in remote_hits] == [
                (round(s, 12), g) for s, g in local_hits
            ], q
        assert svc.count("the") == local.count("the")
        assert_fetch_parity(svc, local, QUERIES + ["zzz_not_there"])
        # batched two-fan-out path returns the same results per query
        many = svc.search_many(QUERIES, limit=10)
        for q, got in zip(QUERIES, many):
            want = [(round(h.score, 12), h.doc_id) for h in local.top_k(q, 10)]
            assert [(round(s, 12), g) for s, g in got] == want, q
        # distributed facet collector == local facet counts
        facets = {"lang": [""]}
        assert svc.facet_counts("the", facets) == local.facet_counts("the", facets)
    finally:
        svc.shutdown()


def test_doc_locator_segment_boundaries(built, ray_session):
    """The doc locator finds the first and last global docid of every
    segment (a wrong ``searchsorted`` side misses one of them) and nothing
    outside the index; a shard actor's ``fetch_docs`` returns exactly the
    ids its own segments hold."""
    import ray

    from rayfts.query.serve import SearchService

    local = Searcher(built)
    assert len(local.segments) > 1
    edges: dict[str, list[int]] = {}
    for seg, reader in zip(local.segments, local.readers):
        start = local.offsets[seg.segment_id]
        edges[seg.segment_id] = [start, start + seg.num_docs - 1]
        for g in edges[seg.segment_id]:
            row = reader.store().slice(g - start, 1).to_pylist()[0]
            want = {k: v if isinstance(v, list) else [v]
                    for k, v in row.items() if not k.startswith("__")}
            assert local._fetch_doc(g) == want, (seg.segment_id, g)
    assert local._fetch_doc(-1) is None
    assert local._fetch_doc(local.n_docs) is None
    ids = sorted(g for pair in edges.values() for g in pair)
    svc = SearchService(built, num_actors=3)
    try:
        for actor, shard in zip(svc.actors, svc.shards):
            got = ray.get(actor.fetch_docs.remote(ids))
            own = sorted(g for sid in shard for g in edges[sid])
            assert sorted(got) == own, shard
            assert all(got[g] == local._fetch_doc(g) for g in own)
    finally:
        svc.shutdown()


def test_service_refresh_on_commit(built, ray_session, tmp_path):
    import shutil

    from rayfts.query.serve import SearchService

    path2 = str(tmp_path / "grow")
    shutil.copytree(built, path2)
    svc = SearchService(path2, num_actors=2)
    try:
        before = svc.count("the")
        merge_index(path2, group_size=6)
        svc.refresh()
        assert svc.count("the") == before
    finally:
        svc.shutdown()


def test_stale_shard_searcher_raises(ray_session, tmp_path):
    """Shard ids split from a manifest version a merge has since replaced
    (``SearchService._split``'s shards, then ``merge_index``): a Searcher
    over them must fail naming the ids, not serve none of the index's
    docs while it counts them all."""
    from rayfts.index.catalog import IndexCatalog
    from rayfts.index.schema import FieldDef, IndexSchema

    cat = IndexCatalog(str(tmp_path), auto_merge_min=0)
    h = cat.create_index("race", IndexSchema([FieldDef("body", "text")]))
    for c in range(4):
        h.add_documents([{"body": f"alpha c{c} d{i}"} for i in range(5)])
    ordered = [s.segment_id for s in mf.read_manifest(h.path).ordered_segments()]
    shards = [list(x) for x in np.array_split(ordered, 2)]
    merge_index(h.path)
    m = mf.read_manifest(h.path)
    assert (m.num_docs, len(m.segments)) == (20, 1)
    for shard in shards:
        with pytest.raises(ValueError, match=f"manifest version {m.version} ") as err:
            Searcher(h.path, segment_ids=shard)
        assert all(sid in str(err.value) for sid in shard)
    # the service's segment-less resolver stays legal
    assert Searcher(h.path, segment_ids=[]).n_docs == 20


def _race_index(path, commits=4, auto_merge_min=0):
    """An index of ``commits`` one-segment commits of 5 "alpha" docs each
    (version ``commits``)."""
    from rayfts.index.catalog import IndexCatalog
    from rayfts.index.schema import FieldDef, IndexSchema

    cat = IndexCatalog(str(path), auto_merge_min=auto_merge_min)
    h = cat.create_index("race", IndexSchema([
        FieldDef("body", "text"),
        FieldDef("n", "u64", indexed=False, stored=True, fast=True)]))
    for c in range(commits):
        h.add_documents([{"body": f"alpha c{c} d{i}", "n": 5 * c + i}
                         for i in range(5)])
    return h


def _merge_all(path):
    from rayfts.index.merge import commit_merge

    m = mf.read_manifest(path)
    ids = [s.segment_id for s in m.ordered_segments()]
    info = merge_segment_group(path, m.schema.to_json(), ids)
    return commit_merge(path, [ids], [info])


def _served_versions(svc):
    import ray

    return ray.get([a.__ray_call__.remote(lambda a: a.searcher.manifest.version)
                    for a in svc.actors + svc.hot_actors])


def _serves_all(svc, n=20):
    got = svc.search("alpha", limit=2 * n, fetch=True)
    return (svc.count("alpha") == n
            and sorted(d["n"][0] for _s, _g, d in got) == list(range(n)))


def test_service_split_before_a_merge_serves_every_doc(ray_session, tmp_path):
    """The race probe through the service: shards split at version 4, then
    a merge commits version 5. The actors serve the version they were
    given (its sources are retired, still on disk), all 20 docs, until a
    refresh pins version 5."""
    from rayfts.query.serve import SearchService

    h = _race_index(tmp_path)
    svc = SearchService(h.path, num_actors=2, hot_replicas=1)
    try:
        assert _served_versions(svc) == [4, 4, 4]
        assert _merge_all(h.path).version == 5
        assert _serves_all(svc)
        assert _served_versions(svc) == [4, 4, 4]
        svc.refresh()
        assert _served_versions(svc) == [5, 5, 5]
        assert _serves_all(svc)
    finally:
        svc.shutdown()


def test_service_repins_once_when_its_segments_are_gone(
        ray_session, tmp_path, monkeypatch):
    """Past the grace (patched to 0) a commit's sweep deletes the sources a
    service still pins: its next call pins the current version and runs
    once more. A second miss raises."""
    from rayfts.query.serve import SearchService

    monkeypatch.setattr(mf, "RETIRE_GRACE_VERSIONS", 0)
    monkeypatch.setattr(mf, "RETIRE_GRACE_SECONDS", 0.0)
    h = _race_index(tmp_path)
    svc = SearchService(h.path, num_actors=2)
    stuck = SearchService(h.path, num_actors=2)
    try:
        _merge_all(h.path)  # its swap commit sweeps the retired sources
        assert not any(os.path.exists(mf.segment_path(h.path, sid))
                       for sid in svc.shards[0] + svc.shards[1])
        assert _serves_all(svc)
        assert _served_versions(svc) == [5, 5]
        stuck.refresh = lambda: None  # the re-pin finds nothing new
        with pytest.raises(FileNotFoundError):
            stuck.count("alpha")
    finally:
        svc.shutdown()
        stuck.shutdown()


def _committer(path, commits):
    from rayfts.index.catalog import IndexCatalog

    h = IndexCatalog(os.path.dirname(path), auto_merge_min=3).open("race")
    for c in range(commits):
        h.add_documents([{"body": f"alpha more{c} d{i}", "n": 1000 + 2 * c + i}
                         for i in range(2)])


def test_refresh_under_concurrent_commits_serves_one_version(
        ray_session, tmp_path):
    """``refresh`` while another process commits (and auto-merges) never
    leaves two versions among the actors, and each pinned version serves
    exactly its own documents."""
    import multiprocessing

    from rayfts.query.serve import SearchService

    h = _race_index(tmp_path)
    svc = SearchService(h.path, num_actors=3, hot_replicas=1)
    proc = multiprocessing.get_context("spawn").Process(
        target=_committer, args=(h.path, 30))
    try:
        proc.start()
        seen = set()
        while proc.is_alive() or not seen:
            svc.refresh()
            versions = set(_served_versions(svc))
            pinned = svc._resolver.manifest
            assert versions == {pinned.version}
            assert svc.count("alpha") == pinned.num_docs
            seen.add(pinned.version)
        proc.join(120)
        assert proc.exitcode == 0
        svc.refresh()
        assert svc.count("alpha") == 20 + 2 * 30
        assert len(seen) > 1
    finally:
        if proc.is_alive():
            proc.kill()
        svc.shutdown()


def test_batch_search_dataset(built, ray_session):
    """Bulk query evaluation: Dataset of query strings -> actor-pool
    map_batches -> Dataset of (query, rank, doc_id, score); results match
    the local Searcher exactly."""
    import pyarrow as pa
    import ray.data

    from rayfts.query.serve import batch_search

    path = built
    queries = ["merge", "the", "filter batch", "query AND batch"]
    qds = ray.data.from_arrow(pa.table({"query": pa.array(queries)}))
    out = batch_search(qds, path, limit=5).take_all()
    s = Searcher(path)
    for q in queries:
        mine = [(r["rank"], r["doc_id"], round(r["score"], 9))
                for r in out if r["query"] == q]
        want = [(i + 1, h.doc_id, round(h.score, 9))
                for i, h in enumerate(s.top_k(q, 5))]
        assert mine == want, q


def test_log_merge_invariance_and_compaction(ray_session, tmp_path):
    """log_merge_index (LogMergePolicy-like tiers) compacts same-level
    contiguous runs; query results — scores AND global docids — are
    identical before and after, and a second invocation is a no-op."""
    from rayfts.index.build import build_index
    from rayfts.index.merge import log_merge_index
    from rayfts.index.schema import FieldDef, IndexSchema
    from rayfts.query.searcher import Searcher

    path = str(tmp_path / "lm")
    schema = IndexSchema([
        FieldDef("text", "text", indexed=True, record="position",
                 tokenizer="en_stem", stored=True),
        FieldDef("doc_id", "u64", indexed=False, stored=True, fast=True),
    ])
    build_index(f"{SF}/documents.parquet", path, schema, content_col="text",
                key_cols=["doc_id"], num_segments=12)
    before = Searcher(path)
    probes = ["merge", "filter batch", '"the the"', "+the -batch"]
    want = {q: [(h.score, h.doc_id) for h in before.top_k(q, 10)] for q in probes}
    m = log_merge_index(path, min_merge=4, max_merge=8)
    assert len(m.segments) < 12
    after = Searcher(path)
    for q in probes:
        assert [(h.score, h.doc_id) for h in after.top_k(q, 10)] == want[q]
    m2 = log_merge_index(path, min_merge=4, max_merge=8)
    assert [s.segment_id for s in m2.segments] == [s.segment_id for s in m.segments]


def test_auto_merge_after_commits(tmp_path):
    """The reference gets automatic background merging from tantivy's
    LogMergePolicy; add_documents triggers the same tiered policy after
    each commit — many tiny commits converge to few segments with
    identical query results."""
    from rayfts.index.catalog import IndexCatalog
    from rayfts.index.schema import FieldDef, IndexSchema

    cat = IndexCatalog(str(tmp_path), auto_merge_min=4)
    schema = IndexSchema([
        FieldDef("body", "text", tokenizer="default", record="position"),
        FieldDef("id", "text", indexed=False),
    ])
    h = cat.create_index("am", schema)
    for i in range(10):
        h.add_documents([{"id": f"d{i}", "body": f"alpha token{i} beta"}])
    assert len(h.manifest.segments) < 10  # compaction happened
    assert h.searcher().count("alpha") == 10
    hits = h.query("alpha", limit=10)
    assert sorted(x["doc"]["id"][0] for x in hits) == [f"d{i}" for i in range(10)]
    # disabled policy keeps every commit as its own segment
    cat2 = IndexCatalog(str(tmp_path / "off"), auto_merge_min=0)
    h2 = cat2.create_index("off", schema)
    for i in range(6):
        h2.add_documents([{"id": f"d{i}", "body": "alpha"}])
    assert len(h2.manifest.segments) == 6


def test_merge_index_preserves_build_params(ray_session, tmp_path):
    """Review r2: merge_index's manifest swap must carry build_params —
    dropping the pinned plan would make a later resume re-plan with
    different unit ids and re-ingest every row."""
    path = str(tmp_path / "bp")
    build_index(f"{SF}/documents.parquet", path, doc_schema(),
                content_col="text", key_cols=["doc_id"], num_segments=6)
    before = mf.read_manifest(path).build_params
    assert before.get("target_docs_per_segment") == 84  # ceil(500 / 6)
    merge_index(path, group_size=3)
    assert mf.read_manifest(path).build_params == before
    from rayfts.index.merge import log_merge_index
    log_merge_index(path, min_merge=2, max_merge=4)
    assert mf.read_manifest(path).build_params == before


def test_unstored_facet_field_survives_merge(tmp_path):
    """Review r2: a stored=False facet field's codes are a hidden store
    column, which a merge concatenates, so the field keeps counting after
    compaction, and no stored document ever shows it."""
    from rayfts.index.catalog import IndexCatalog
    from rayfts.index.schema import FieldDef, IndexSchema

    cat = IndexCatalog(str(tmp_path), auto_merge_min=3)
    schema = IndexSchema([
        FieldDef("body", "text", tokenizer="default", record="position"),
        FieldDef("cat", "facet", stored=False),
    ])
    h = cat.create_index("uf", schema)

    def check(n):
        res = h.query_json({"query": {"term": {"body": "x"}}, "limit": 10,
                            "facets": {"cat": ["/top"]}})
        got = {f["term"]: f["count"] for f in res.facets}
        assert got == {"/top/a": (n + 1) // 2, "/top/b": n // 2}
        s = h.searcher()
        assert [sorted(s._fetch_doc(g)) for g in range(n)] == [["body"]] * n
        assert [sorted(r["doc"]) for r in h.query("x")] == [["body"]] * n

    for i in range(6):  # crosses the auto-merge threshold
        h.add_documents([{"body": f"x tok{i}", "cat": f"/top/{'ab'[i % 2]}"}])
        if i == 1:
            check(2)
    assert len(h.manifest.segments) < 6
    check(6)


def test_facet_prefix_respects_path_components(tmp_path):
    """Review r2: prefix '/top' must not match values under '/topics'."""
    from rayfts.index.catalog import IndexCatalog
    from rayfts.index.schema import FieldDef, IndexSchema

    cat = IndexCatalog(str(tmp_path))
    schema = IndexSchema([
        FieldDef("body", "text", tokenizer="default", record="position"),
        FieldDef("cat", "facet"),
    ])
    h = cat.create_index("pb", schema)
    h.add_documents([
        {"body": "x", "cat": "/top/a"},
        {"body": "x", "cat": "/topics/news"},
        {"body": "x", "cat": "/top"},
    ])
    res = h.query_json({"query": {"term": {"body": "x"}}, "limit": 10,
                        "facets": {"cat": ["/top"]}})
    got = {f["term"]: f["count"] for f in res.facets}
    assert got == {"/top/a": 1, "/top": 1}


def test_service_facets_keep_fields_separate(built, ray_session):
    """Review r2: the distributed facet merge must key by field — equal
    paths in different facet fields stay separate entries."""
    from rayfts.query.serve import SearchService

    svc = SearchService(built, num_actors=2)
    local = Searcher(built)
    try:
        facets = {"lang": [""], "source": [""]}
        assert svc.facet_counts("the", facets) == local.facet_counts("the", facets)
    finally:
        svc.shutdown()


def test_batch_search_rejects_bad_query_rows_only(built, ray_session):
    """Expected per-query errors (bad query text) yield zero rows for that
    query while the rest of the batch proceeds (unexpected errors would
    propagate to Ray instead — ADVICE r1 policy)."""
    import pyarrow as pa
    import ray.data

    from rayfts.query.serve import batch_search

    qds = ray.data.from_arrow(pa.table({
        "query": pa.array(["merge", "(unbalanced", "nosuchfield:x", "the"])
    }))
    rows = batch_search(qds, built, limit=5, concurrency=(1, 2)).take_all()
    per_query = {}
    for r in rows:
        per_query.setdefault(r["query"], 0)
        per_query[r["query"]] += 1
    assert per_query.get("merge", 0) > 0 and per_query.get("the", 0) > 0
    assert "(unbalanced" not in per_query and "nosuchfield:x" not in per_query


def test_log_merge_idempotent_after_partial_crash(ray_session, tmp_path):
    """A crash between group merges and the manifest swap leaves committed
    merged-segment dirs unreferenced; the rerun adopts them (tmp+rename
    idempotence) and converges to the same manifest."""
    from rayfts.index.merge import (log_merge_index, merge_segment_group,
                                    plan_log_merge_groups)

    path = str(tmp_path / "pc")
    build_index(f"{SF}/documents.parquet", path, doc_schema(),
                content_col="text", key_cols=["doc_id"], num_segments=8)
    m = mf.read_manifest(path)
    groups = plan_log_merge_groups(m.ordered_segments(), min_merge=4, max_merge=4)
    assert groups
    # simulate: first group's merge completed, then the driver died
    merge_segment_group(path, m.schema.to_json(), groups[0])
    before = Searcher(path)
    want = [(h.score, h.doc_id) for h in before.top_k("merge", 10)]
    m2 = log_merge_index(path, min_merge=4, max_merge=4)
    after = Searcher(path)
    assert [(h.score, h.doc_id) for h in after.top_k("merge", 10)] == want
    assert m2.num_docs == 500


def test_log_merge_survives_driver_sigkill(ray_session, tmp_path):
    """Real kill-and-resume (VERDICT r2 #4): a child driver process is
    SIGKILLed mid-`log_merge_index` (merged dirs committed, manifest not
    swapped: the child's ``commit_merge`` kills it). The index must
    stay queryable on the old manifest, and a rerun must converge to the
    same results as an uninterrupted merge. The child joins THIS test
    session's Ray cluster so its tasks are reaped by GCS on death."""
    import os
    import signal
    import subprocess
    import sys

    import ray as _ray

    from rayfts.index.merge import log_merge_index

    path = str(tmp_path / "sk")
    build_index(f"{SF}/documents.parquet", path, doc_schema(),
                content_col="text", key_cols=["doc_id"], num_segments=8)
    before = Searcher(path)
    want = [(h.score, h.doc_id) for h in before.top_k("merge", 10)]
    version_before = mf.read_manifest(path).version

    gcs = _ray.get_runtime_context().gcs_address
    child = (
        "import os, ray, signal, sys\n"
        f"ray.init(address={gcs!r}, ignore_reinit_error=True)\n"
        "from rayfts.index import merge\n"
        "# die in the widest crash window: merged segment dirs renamed into\n"
        "# place, manifest not yet swapped\n"
        "merge.commit_merge = lambda *a: os.kill(os.getpid(), signal.SIGKILL)\n"
        f"merge.log_merge_index({path!r}, min_merge=4, max_merge=4)\n"
        "sys.exit(3)  # unreachable: commit_merge SIGKILLs first\n"
    )
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == -signal.SIGKILL, (proc.returncode, proc.stderr[-2000:])

    # crash window left committed merged dirs unreferenced; old manifest
    # still serves identical results
    assert mf.read_manifest(path).version == version_before
    mid = Searcher(path)
    assert [(h.score, h.doc_id) for h in mid.top_k("merge", 10)] == want

    # rerun converges (adopting the orphan dirs) and results are invariant
    m2 = log_merge_index(path, min_merge=4, max_merge=4)
    assert m2.version > version_before and m2.num_docs == 500
    after = Searcher(path)
    assert [(h.score, h.doc_id) for h in after.top_k("merge", 10)] == want


def test_merge_invariance_over_fuzz_ingest(ray_session, tmp_path):
    """End-to-end property: after ingesting adversarial doc batches
    (absent fields, multi-valued, unicode, numbers-as-text), compaction
    preserves every query's (score, external-id) results exactly."""
    from hypothesis import HealthCheck, given, settings, strategies as st

    from rayfts.index.catalog import IndexCatalog
    from rayfts.index.merge import log_merge_index
    from rayfts.index.schema import FieldDef, IndexSchema

    val = st.one_of(st.none(), st.text("abcé ", max_size=12),
                    st.integers(0, 5),
                    st.lists(st.text("xyz ", max_size=6), max_size=3))
    doc = st.dictionaries(st.sampled_from(["body", "tag", "junk"]), val,
                          max_size=3)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.lists(doc, min_size=1, max_size=4),
                    min_size=3, max_size=6))
    def check(batches):
        import uuid as _uuid

        root = str(tmp_path / _uuid.uuid4().hex[:8])
        cat = IndexCatalog(root)
        h = cat.create_index("mf", IndexSchema([
            FieldDef("body", "text", tokenizer="default", record="position"),
            FieldDef("tag", "text", tokenizer="raw", record="basic"),
        ]))
        for b in batches:
            h.add_documents(b)
        qs = ["a", "x", "body:abc", '"a b"', "+a -x", "tag:1"]
        def results():
            s = Searcher(h.path)
            return [
                [(round(hit.score, 9), hit.doc_id) for hit in s.top_k(q, 10)]
                for q in qs
            ]
        before = results()
        log_merge_index(h.path, min_merge=2, max_merge=4)
        assert results() == before

    check()


def test_routing_terms_shapes():
    """Necessary-term routing sets: sound shapes route, unprovable
    shapes return None (send-everywhere)."""
    from rayfts.query.ast import (All, Bool, Fuzzy, Phrase, Range, Regex,
                                  Term, routing_terms)

    t = Term("text", "alpha")
    assert routing_terms(t) == [("text", "alpha")]
    assert routing_terms(Phrase("text", ["a", "b"])) == [("text", "a")]
    # must transfers any routable clause; must_not never widens
    assert routing_terms(Bool(must=[Range("n", gte=1), t],
                              must_not=[Term("text", "x")])) == \
        [("text", "alpha")]
    # pure should = union of all clauses
    assert sorted(routing_terms(Bool(should=[t, Term("text", "beta")]))) == \
        [("text", "alpha"), ("text", "beta")]
    # any unroutable should clause poisons the union
    assert routing_terms(Bool(should=[t, Regex("text", "a.*")])) is None
    for q in (All(), Fuzzy("text", "abc"), Range("n", gte=1),
              Bool(must=[Range("n", gte=1)])):
        assert routing_terms(q) is None


def test_search_many_routing_skips_dead_shards(built, ray_session):
    """A term that lives in a single segment must be answered correctly
    while only that shard evaluates it (parity already covered above;
    here we assert the routing decision itself)."""
    from rayfts.query.ast import routing_terms
    from rayfts.query.serve import SearchService

    svc = SearchService(built, num_actors=3)
    local = Searcher(built)
    try:
        # find a term that exists in the corpus but not in every shard
        pairs = [("text", w) for w in
                 ["the", "merge", "segment", "zzz_not_there"]]
        parts = [a for a in svc.actors]
        import ray as _ray

        dfs = _ray.get([a.partial_df.remote(pairs) for a in parts])
        for q in ["merge", "zzz_not_there"]:
            need = routing_terms(svc._resolver._resolve(q))
            assert need is not None
            live = [ai for ai, d in enumerate(dfs)
                    if any(d.get(p, 0) > 0 for p in need)]
            got = svc.search_many([q], limit=10)[0]
            want = [(round(h.score, 12), h.doc_id)
                    for h in local.top_k(q, 10)]
            assert [(round(s, 12), g) for s, g in got] == want, q
            if q == "zzz_not_there":
                assert live == [] and got == []
    finally:
        svc.shutdown()


def test_sharded_merge_byte_identical(built, ray_session, tmp_path):
    """Term-sharded parallel merge produces the EXACT same segment files
    as the single-task merge (per-term encodings depend only on the term's
    own postings, so shard-blob concatenation in term order is identity),
    at any shard count — including more shards than terms would warrant."""
    import hashlib
    import os
    import shutil

    man = mf.read_manifest(built)
    ids = [s.segment_id for s in man.ordered_segments()]

    def seg_digests(p):
        seg = mf.segment_path(p, merged_segment_id(ids))
        return {
            f: hashlib.sha256(open(os.path.join(seg, f), "rb").read()).hexdigest()
            for f in sorted(os.listdir(seg))
        }

    p0 = str(tmp_path / "unsharded")
    shutil.copytree(built, p0)
    merge_segment_group(p0, man.schema.to_json(), ids)
    base = seg_digests(p0)

    for shards in (3, 16):
        p = str(tmp_path / f"sharded{shards}")
        shutil.copytree(built, p)
        merge_segment_group(p, man.schema.to_json(), ids, shards)
        assert seg_digests(p) == base, f"shards={shards} diverged"
        # no shard scratch files left behind
        seg = mf.segment_path(p, merged_segment_id(ids))
        assert not [f for f in os.listdir(seg) if f.startswith("shard-")]


def test_log_merge_uses_sharding_and_preserves_results(ray_session, tmp_path):
    """End-to-end: a log-merge whose group is big enough to shard returns
    identical query results (docids AND scores) to the unmerged index."""
    import os

    from rayfts.index.merge import _auto_shards, log_merge_index

    path = str(tmp_path / "docs")
    build_index(f"{SF}/documents.parquet", path, doc_schema(),
                content_col="text", key_cols=["doc_id"], num_segments=8)
    before = snapshot(path)
    man = mf.read_manifest(path)
    seg_by_id = {s.segment_id: s for s in man.segments}
    group = [s.segment_id for s in man.ordered_segments()]
    # force the sharded path even at sf0.001 scale
    n = _auto_shards(seg_by_id, group, target_shard_bytes=1 << 12)
    assert n > 1
    merge_segment_group(path, man.schema.to_json(), group, n)
    merged = [mf.segment_path(path, merged_segment_id(group))]
    assert all(os.path.isdir(d) for d in merged)
    # swap manifest the way log_merge does, then compare query snapshots
    m2 = log_merge_index(path, min_merge=2, max_merge=len(group))
    assert len(m2.segments) < len(group)
    assert snapshot(path) == before


def test_sharded_merge_cleans_stale_tmp(built, ray_session, tmp_path):
    """A crashed prior attempt may leave shard files for a DIFFERENT
    plan in its scratch directory (here the legacy ``<id>.tmp``); they
    must not ride the rename into the final segment."""
    import os
    import shutil

    man = mf.read_manifest(built)
    ids = [s.segment_id for s in man.ordered_segments()][:3]
    p = str(tmp_path / "stale")
    shutil.copytree(built, p)
    tmp = mf.segment_path(p, merged_segment_id(ids)) + ".tmp"
    os.makedirs(tmp)
    open(os.path.join(tmp, "shard-99999.post"), "wb").write(b"junk")
    merge_segment_group(p, man.schema.to_json(), ids, 2)
    seg = mf.segment_path(p, merged_segment_id(ids))
    assert os.path.isdir(seg)
    assert not [f for f in os.listdir(seg) if f.startswith("shard-")]


def test_sharded_merge_with_facets_byte_identical(ray_session, tmp_path):
    """Facet codes merge in the (sharding-independent) store concat; a
    facet-bearing index must still stitch byte-identically and
    serve identical facet counts after a sharded merge."""
    import hashlib
    import os

    from rayfts.index.catalog import IndexCatalog
    from rayfts.index.schema import FieldDef, IndexSchema

    schema = IndexSchema([
        FieldDef("body", "text", tokenizer="default", record="position"),
        FieldDef("cat", "facet"),
        FieldDef("id", "u64", indexed=False, stored=True, fast=True),
    ])
    langs = ["en", "de", "fr"]
    docs = [{"body": f"alpha token{i} beta gamma", "id": i,
             "cat": f"/top/{langs[i % 3]}"} for i in range(90)]

    def build(root):
        cat = IndexCatalog(root, auto_merge_min=0)
        h = cat.create_index("fx", schema)
        for j in range(0, 90, 30):  # 3 segments
            h.add_documents(docs[j:j + 30])
        return os.path.join(root, "fx"), h

    p0, h0 = build(str(tmp_path / "a"))
    p1, h1 = build(str(tmp_path / "b"))
    man = mf.read_manifest(p0)
    ids = [s.segment_id for s in man.ordered_segments()]
    assert len(ids) == 3
    before = h0.searcher().facet_counts("alpha", {"cat": [""]})

    merge_segment_group(p0, man.schema.to_json(), ids)
    merge_segment_group(p1, mf.read_manifest(p1).schema.to_json(),
                        [s.segment_id for s in
                         mf.read_manifest(p1).ordered_segments()], 4)

    def digests(p, sids):
        seg = mf.segment_path(p, merged_segment_id(sids))
        # segment.json carries lineage (the two builds have distinct
        # source segment ids) — compare the four DATA files
        return {f: hashlib.sha256(
            open(os.path.join(seg, f), "rb").read()).hexdigest()
            for f in sorted(os.listdir(seg)) if f != "segment.json"}

    assert digests(p0, ids) == digests(
        p1, [s.segment_id for s in mf.read_manifest(p1).ordered_segments()])
    # swap manifests and compare facet counts end-to-end
    from rayfts.index.merge import log_merge_index
    log_merge_index(p0, min_merge=2, max_merge=4)
    from rayfts.query.searcher import Searcher
    assert Searcher(p0).facet_counts("alpha", {"cat": [""]}) == before


def test_hot_tier_parity_and_cache(built, ray_session):
    """Hot-term tier: queries whose routing terms reach most shards are
    answered by one full-replica evaluation — results must be identical
    to the routed sharded path AND to a local searcher, including on
    cache hits, single-query fetch, and after refresh()."""
    import ray as _ray

    from rayfts.query.serve import SearchService

    local = Searcher(built)
    tiered = SearchService(built, num_actors=3, hot_replicas=2)
    plain = SearchService(built, num_actors=3)
    try:
        mixed = QUERIES + ["the merge", "the", "zzz_not_there"]
        want = {q: [(round(h.score, 12), h.doc_id) for h in local.top_k(q, 10)]
                for q in mixed}
        # twice: the second pass is answered from the replica result cache
        for _pass in range(2):
            got_tier = tiered.search_many(mixed, limit=10)
            got_plain = plain.search_many(mixed, limit=10)
            for q, gt, gp in zip(mixed, got_tier, got_plain):
                assert [(round(s, 12), g) for s, g in gt] == want[q], q
                assert [(round(s, 12), g) for s, g in gp] == want[q], q
        # the hot term really went to the tier (cache populated somewhere)
        sizes = _ray.get([a.cache_stats.remote() for a in tiered.hot_actors])
        assert sum(sizes) > 0
        # single-query tier and routed paths with stored-doc fetch
        assert_fetch_parity(tiered, local, mixed)
        # refresh drops caches and keeps parity
        tiered.refresh()
        assert _ray.get([a.cache_stats.remote() for a in tiered.hot_actors]) == [0, 0]
        got = tiered.search_many(["the"], limit=10)[0]
        assert [(round(s, 12), g) for s, g in got] == want["the"]
    finally:
        tiered.shutdown()
        plain.shutdown()


def test_constant_score_serve_parity(built, ray_session):
    """Fuzzy, regex and range top-k through the service, sharded and with a
    hot replica, equal the local searcher's hits and the k smallest
    matching docids: each shard stops early on its own segments."""
    from rayfts.query.serve import SearchService

    queries = [
        {"fuzzy": {"text": {"value": "windo", "distance": 1}}},
        {"fuzzy": {"text": {"value": "mreg", "distance": 2, "transposition": True}}},
        {"fuzzy": {"text": "zzzzzzz"}},
        {"regex": {"text": "wind.*"}},
        {"regex": {"text": "s.*"}},
        {"range": {"text": {"gte": "m", "lt": "p"}}},
        {"range": {"n_chars": {"gte": 150}}},
    ]
    local = Searcher(built)
    plain = SearchService(built, num_actors=3)
    tiered = SearchService(built, num_actors=3, hot_replicas=1)
    try:
        for limit in (10, 300):
            want = []
            for q in queries:
                gids, _ = local.matches(q)
                smallest = sorted(gids.tolist())[:limit]
                assert [h.doc_id for h in local.top_k(q, limit)] == smallest, q
                want.append([(1.0, g) for g in smallest])
            for svc in (plain, tiered):
                assert svc.search_many(queries, limit=limit) == want
                for q, w in zip(queries, want):
                    assert svc.search(q, limit=limit) == w, q
        assert want[0] and want[3] and want[5] and want[6] and not want[2]
    finally:
        plain.shutdown()
        tiered.shutdown()
