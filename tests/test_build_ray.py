"""Ray Data build pipeline: determinism, resume-from-checkpoint with
lineage, content-sha integrity (north rule: resumable per-partition
checkpoints; BASELINE.md resumability row)."""

import glob
import hashlib
import json
import os

import pyarrow.parquet as pq
import pytest

from rayfts.index import manifest as mf
from rayfts.index.build import build_index
from rayfts.index.schema import FieldDef, IndexSchema
from rayfts.query.searcher import Searcher

SF = "/root/testdata/sf0.001"


def doc_schema() -> IndexSchema:
    return IndexSchema([
        FieldDef("text", "text", indexed=True, record="position",
                 tokenizer="en_stem", stored=True),
        FieldDef("lang", "text", indexed=True, record="basic",
                 tokenizer="raw", stored=True),
        FieldDef("doc_id", "u64", indexed=False, stored=True, fast=True),
        FieldDef("n_chars", "u64", indexed=False, stored=True, fast=True),
        FieldDef("source", "text", indexed=False, stored=True),
    ])


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("rayidx")
    path = str(root / "docs")
    manifest = build_index(
        f"{SF}/documents.parquet", path, doc_schema(),
        content_col="text", key_cols=["doc_id"], num_segments=6,
    )
    return path, manifest


def test_build_complete(built):
    path, manifest = built
    assert manifest.num_docs == 500
    assert len(manifest.segments) == 6
    s = Searcher(path)
    assert s.count("all" and {"term": {"lang": "es"}}) > 0


def test_deterministic_across_builds(built, ray_session, tmp_path):
    """Same input, different parallelism -> byte-identical segments
    (merge/build determinism, SURVEY.md §5 item 3)."""
    path, _ = built
    path2 = str(tmp_path / "docs2")
    build_index(f"{SF}/documents.parquet", path2, doc_schema(),
                content_col="text", key_cols=["doc_id"], num_segments=6)
    for seg_dir in sorted(glob.glob(os.path.join(path, "segments", "*"))):
        other = os.path.join(path2, "segments", os.path.basename(seg_dir))
        for fname in ["postings.bin", "positions.bin"]:
            a = open(os.path.join(seg_dir, fname), "rb").read()
            b = open(os.path.join(other, fname), "rb").read()
            assert hashlib.sha256(a).hexdigest() == hashlib.sha256(b).hexdigest(), (
                seg_dir, fname)


def test_rank_identical_across_builds(built, ray_session, tmp_path):
    path, _ = built
    path2 = str(tmp_path / "docs3")
    build_index(f"{SF}/documents.parquet", path2, doc_schema(),
                content_col="text", key_cols=["doc_id"], num_segments=6)
    s1, s2 = Searcher(path), Searcher(path2)
    for q in ["merge", "the", "spark window", "query AND batch"]:
        h1 = [(h["doc"]["doc_id"][0], h["score"]) for h in s1.query_string(q)]
        h2 = [(h["doc"]["doc_id"][0], h["score"]) for h in s2.query_string(q)]
        assert h1 == h2, q


def test_content_sha256_integrity(built):
    """Per-row invariant (BASELINE.json input_hint): sha256(content) carried
    into the doc store equals a recomputation from the source table."""
    path, manifest = built
    src = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    expect = {
        d: hashlib.sha256(t.encode()).hexdigest()
        for d, t in zip(src["doc_id"].to_pylist(), src["text"].to_pylist())
    }
    seen = 0
    for seg in manifest.segments:
        store = pq.read_table(
            os.path.join(mf.segment_path(path, seg.segment_id), "store.parquet"),
            columns=["doc_id", "content_sha256"],
        )
        for d, sha in zip(store["doc_id"].to_pylist(), store["content_sha256"].to_pylist()):
            assert expect[d] == sha
            seen += 1
    assert seen == 500


def test_input_mode_resume_and_parity(ray_session, tmp_path):
    """Zero-shuffle build: planned units are the checkpoint grain; a failed
    build leaves its finished units on disk (the atomically renamed segment
    dirs ARE the checkpoints), the rerun skips them by unit-id set diff,
    and the resumed index ranks exactly as a clean build of the same plan
    and, by SURVEY.md §7.5(6), as a build of a different plan
    (partitioning must not change BM25 results)."""
    path = str(tmp_path / "iunits")
    with pytest.raises(Exception):
        build_index(f"{SF}/documents.parquet", path, doc_schema(),
                    content_col="text", key_cols=["doc_id"], num_segments=6,
                    _fail_segments=frozenset({0, 3}))
    done_dirs = sorted(
        d for d in glob.glob(os.path.join(path, "segments", "seg-*"))
        if not d.endswith(".tmp")
    )
    assert 0 < len(done_dirs) < 6
    mtimes = {d: os.path.getmtime(os.path.join(d, "postings.bin")) for d in done_dirs}
    for d in done_dirs:
        meta = json.load(open(os.path.join(d, "segment.json")))
        assert meta["metrics"]["build_secs"] >= 0
        assert meta["lineage"]["path"].endswith("documents.parquet")
        assert meta["lineage"]["rows"] > 0 and "content_xor" in meta["lineage"]

    m2 = build_index(f"{SF}/documents.parquet", path, doc_schema(),
                     content_col="text", key_cols=["doc_id"], num_segments=6)
    assert len(m2.segments) == 6 and m2.num_docs == 500
    for d in done_dirs:  # committed units were skipped, not rebuilt
        assert os.path.getmtime(os.path.join(d, "postings.bin")) == mtimes[d]

    clean = str(tmp_path / "clean")
    build_index(f"{SF}/documents.parquet", clean, doc_schema(),
                content_col="text", key_cols=["doc_id"], num_segments=6)
    other = str(tmp_path / "other")
    build_index(f"{SF}/documents.parquet", other, doc_schema(),
                content_col="text", key_cols=["doc_id"], num_segments=4)
    s1, s2, s3 = Searcher(path), Searcher(clean), Searcher(other)
    for q in ["merge", "the", "filter batch", "query AND batch"]:
        h1 = [(h["doc"]["doc_id"][0], h["score"]) for h in s1.query_string(q)]
        assert h1 == [(h["doc"]["doc_id"][0], h["score"]) for h in s2.query_string(q)], q
        assert_same_ranking(h1, [(h["doc"]["doc_id"][0], h["score"])
                                 for h in s3.query_string(q)], q)


def assert_same_ranking(h1, h2, q):
    """Rank identity across partitionings is defined on (score, stable
    external id), SURVEY.md §7.5(6): internal docid tie-breaks may permute
    equal-score docs (the reference's own docid order is itself
    nondeterministic), so compare the score sequences and the doc sets
    above the boundary score."""
    h1 = [(d, round(s, 5)) for d, s in h1]
    h2 = [(d, round(s, 5)) for d, s in h2]
    assert [s for _, s in h1] == [s for _, s in h2], q
    boundary = h1[-1][1] if h1 else None
    assert {d for d, s in h1 if s != boundary} == {d for d, s in h2 if s != boundary}, q


def test_input_mode_resume_reuses_pinned_plan(ray_session, tmp_path):
    """A resumed build on a DIFFERENT cluster size must re-plan the same
    unit list: the original target_docs_per_segment is pinned in the
    manifest, so unit/segment ids line up and committed work is skipped."""
    path = str(tmp_path / "pinned")
    with pytest.raises(Exception):
        build_index(f"{SF}/documents.parquet", path, doc_schema(),
                    content_col="text", key_cols=["doc_id"], num_segments=10,
                    _fail_segments=frozenset({2}))
    m1 = mf.read_manifest(path)
    assert m1.build_params["target_docs_per_segment"] == 50
    done_dirs = sorted(
        d for d in glob.glob(os.path.join(path, "segments", "seg-*"))
        if not d.endswith(".tmp")
    )
    assert done_dirs  # completed units checkpointed on disk
    mtimes = {d: os.path.getmtime(os.path.join(d, "postings.bin")) for d in done_dirs}
    # resume with NO sizing hints at all: pinned plan must be reused
    m2 = build_index(f"{SF}/documents.parquet", path, doc_schema(),
                     content_col="text", key_cols=["doc_id"])
    assert m2.num_docs == 500
    assert len(m2.segments) == 10
    for d in done_dirs:  # not rebuilt under the reused plan
        assert os.path.getmtime(os.path.join(d, "postings.bin")) == mtimes[d]


def test_multi_file_build_and_query(ray_session, tmp_path):
    """Input-mode build over a MULTI-file corpus directory: units cover
    every file, docids stay deterministic, queries work end-to-end."""
    import pyarrow as pa

    src = tmp_path / "corpus"
    src.mkdir()
    n = 0
    for part in range(3):
        rows = [{"doc_id": part * 100 + i,
                 "text": f"alpha part{part} token{i} shared"} for i in range(40)]
        pq.write_table(pa.Table.from_pylist(rows), str(src / f"p{part}.parquet"))
        n += len(rows)
    schema = IndexSchema([
        FieldDef("text", "text", tokenizer="default", record="position", stored=True),
        FieldDef("doc_id", "u64", indexed=False, stored=True, fast=True),
    ])
    idx = str(tmp_path / "idx")
    m = build_index(str(src), idx, schema, content_col="text",
                    key_cols=["doc_id"], target_docs_per_segment=25)
    assert m.num_docs == n and len(m.segments) >= 3
    s = Searcher(idx)
    assert s.count({"term": {"text": "shared"}}) == n
    assert s.count({"term": {"text": "part1"}}) == 40
    hits = s.query_string("part2 AND token3", limit=5)
    assert hits and hits[0]["doc"]["doc_id"][0] == 203


def test_giant_document(ray_session, tmp_path):
    """A single pathological 200k-token document builds, scores and
    phrase-matches correctly (positions stay int32-safe; no truncation)."""
    import pyarrow as pa

    big = " ".join(f"tok{i % 5000}" for i in range(200_000)) + " needle needle"
    tbl = pa.Table.from_pylist([
        {"doc_id": 0, "text": big},
        {"doc_id": 1, "text": "short needle doc"},
    ])
    src = str(tmp_path / "giant.parquet")
    pq.write_table(tbl, src)
    schema = IndexSchema([
        FieldDef("text", "text", tokenizer="default", record="position", stored=False),
        FieldDef("doc_id", "u64", indexed=False, stored=True, fast=True),
    ])
    idx = str(tmp_path / "gidx")
    m = build_index(src, idx, schema, content_col="text", key_cols=["doc_id"])
    assert m.num_docs == 2
    s = Searcher(idx)
    assert s.count({"term": {"text": "needle"}}) == 2
    hits = s.query_string('"needle needle"', limit=5)
    assert [h["doc"]["doc_id"][0] for h in hits] == [0]
    # tf of tok0 in the giant doc is 40 (200k / 5000)
    gids, scores = s.matches({"term": {"text": "tok0"}})
    assert gids.size == 1


def test_pipeline_composition_filter_then_index_then_serve(ray_session, tmp_path):
    """Pipeline chaining: an upstream Ray Data transform's full-row
    Dataset feeds build_index directly (no parquet round-trip), and the
    served index matches one built from the same rows via parquet — the
    Ray-Data composition contract for multi-stage pipelines."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import ray.data

    kept = ray.data.read_parquet(f"{SF}/documents.parquet").filter(
        expr="n_chars >= 200").materialize()
    n_kept = kept.count()
    assert 0 < n_kept < 500

    p_direct = str(tmp_path / "direct")
    m1 = build_index(kept, p_direct, doc_schema(), content_col="text",
                     key_cols=["doc_id"], resume=False)
    assert m1.num_docs == n_kept

    # the same rows via a parquet checkpoint rank the same; the docid order
    # of equal scores follows segment ids, which differ between the two
    chk = str(tmp_path / "chk.parquet")
    pq.write_table(pa.Table.from_pandas(
        kept.to_pandas().sort_values("doc_id").reset_index(drop=True)), chk)
    p_parquet = str(tmp_path / "viaparquet")
    build_index(chk, p_parquet, doc_schema(), content_col="text",
                key_cols=["doc_id"], num_segments=4, resume=False)
    s1, s2 = Searcher(p_direct), Searcher(p_parquet)
    for q in ["merge", "filter batch", '"the the"']:
        assert_same_ranking(
            [(h["doc"]["doc_id"][0], h["score"]) for h in s1.query_string(q)],
            [(h["doc"]["doc_id"][0], h["score"]) for h in s2.query_string(q)], q)


def test_dataset_build_one_segment_per_block(ray_session, tmp_path):
    """A Dataset builds one segment per block as it stands, with no
    shuffle; its ids share one generation prefix, its lineage carries the
    content checksum, and a sizing argument (which only planned Parquet
    units take) is refused."""
    import ray.data

    full = pq.read_table(f"{SF}/documents.parquet")
    ds = ray.data.from_arrow([full.slice(0, 100), full.slice(100, 150),
                              full.slice(250)])
    with pytest.raises(ValueError, match="per block"):
        build_index(ds, str(tmp_path / "sized"), doc_schema(),
                    content_col="text", num_segments=2)
    m = build_index(ds, str(tmp_path / "idx"), doc_schema(), content_col="text")
    assert sorted(s.num_docs for s in m.segments) == [100, 150, 250]
    assert len({s.segment_id.rsplit("-", 1)[0] for s in m.segments}) == 1
    assert all(s.lineage["source"] == "dataset" and "content_xor" in s.lineage
               for s in m.segments)
    assert m.num_docs == 500


def test_append_to_index_distributed(ray_session, tmp_path):
    """Distributed incremental ingest: append a second Dataset to a built
    index; existing global docids are stable (new segments sort after),
    counts grow, and (stored doc_id, score) results equal a from-scratch
    index over the union. Serving picks the commit up via refresh()."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from rayfts.index.build import append_to_index
    from rayfts.query.serve import SearchService

    full = pq.read_table(f"{SF}/documents.parquet")
    first, second = full.slice(0, 300), full.slice(300)

    p1 = str(tmp_path / "base.parquet")
    pq.write_table(first, p1)
    idx = str(tmp_path / "idx")
    build_index(p1, idx, doc_schema(), content_col="text",
                key_cols=["doc_id"], num_segments=4, resume=False)
    base = Searcher(idx)
    base_gids = {  # stored doc_id -> global docid before the append
        int(d): int(g) for g, d in zip(*_gid_docid_pairs(base))
    }
    svc = SearchService(idx, num_actors=2)
    try:
        assert svc.count("the") == base.count("the")
        blocks = [second.slice(0, 60), second.slice(60, 60), second.slice(120)]
        m2 = append_to_index(ray.data.from_arrow(blocks), idx,
                             content_col="text", key_cols=["doc_id"])
        assert m2.num_docs == 500 and len(m2.segments) == 4 + 3  # one per block
        after = Searcher(idx)
        after_gids = {int(d): int(g) for g, d in zip(*_gid_docid_pairs(after))}
        for doc_id, gid in base_gids.items():
            assert after_gids[doc_id] == gid  # existing docs keep gids
        svc.refresh()
        assert svc.count("the") == after.count("the")
    finally:
        svc.shutdown()

    # rank parity with a from-scratch build over the union
    scratch = str(tmp_path / "scratch")
    build_index(f"{SF}/documents.parquet", scratch, doc_schema(),
                content_col="text", key_cols=["doc_id"], num_segments=4,
                resume=False)
    s1, s2 = Searcher(idx), Searcher(scratch)
    for q in ["merge", "filter batch", '"the the"', "+the -batch"]:
        # equal-score ties break on INTERNAL global docid (tantivy
        # semantics), which legitimately differs between an appended and
        # a from-scratch index; compare the (doc_id, score) multiset with
        # the cutoff score-group dropped (it can truncate differently)
        r1 = sorted((h["doc"]["doc_id"][0], round(h["score"], 9))
                    for h in s1.query_string(q, limit=30))
        r2 = sorted((h["doc"]["doc_id"][0], round(h["score"], 9))
                    for h in s2.query_string(q, limit=30))
        if r1 != r2:
            cut = min(min(s for _, s in r1), min(s for _, s in r2))
            r1 = [x for x in r1 if x[1] > cut]
            r2 = [x for x in r2 if x[1] > cut]
        assert r1 == r2, q


def _gid_docid_pairs(s):
    import numpy as np

    gids, _ = s.matches("the")
    import sys
    sys.path.insert(0, "/root/repo")
    from __ray_entry__ import _stored_doc_ids

    return gids, _stored_doc_ids(s, gids)


def test_append_then_compact_invariance(ray_session, tmp_path):
    """Appended segments (generation-suffixed ids) flow through the
    LogMergePolicy compaction like any others: results invariant, docid
    order preserved, segment count drops."""
    import pyarrow.parquet as pq
    import ray.data

    from rayfts.index.build import append_to_index
    from rayfts.index.merge import log_merge_index

    full = pq.read_table(f"{SF}/documents.parquet")
    p1 = str(tmp_path / "base.parquet")
    pq.write_table(full.slice(0, 200), p1)
    idx = str(tmp_path / "idx")
    build_index(p1, idx, doc_schema(), content_col="text",
                key_cols=["doc_id"], num_segments=4, resume=False)
    for lo in (200, 300, 400):
        blocks = [full.slice(lo, 50), full.slice(lo + 50, 50)]
        append_to_index(ray.data.from_arrow(blocks), idx,
                        content_col="text", key_cols=["doc_id"])
    n_before = len(mf.read_manifest(idx).segments)
    s = Searcher(idx)
    probes = ["merge", "filter batch", '"the the"']
    want = {q: [(h.score, h.doc_id) for h in s.top_k(q, 10)] for q in probes}
    m = log_merge_index(idx, min_merge=3, max_merge=8)
    assert len(m.segments) < n_before and m.num_docs == 500
    after = Searcher(idx)
    for q in probes:
        assert [(h.score, h.doc_id) for h in after.top_k(q, 10)] == want[q], q


@pytest.mark.parametrize("levels", [1, 2])
def test_resume_after_merge_skips_merged_units(ray_session, tmp_path, levels):
    """A build resumed after its segments were merged (once, or a merge of
    merges) indexes nothing again: the merged segment's lineage names
    every build unit it covers, and the resume skips those."""
    from rayfts.index.merge import merge_index

    full = pq.read_table(f"{SF}/documents.parquet")
    paths = []
    for i in range(4):
        paths.append(str(tmp_path / f"part-{i}.parquet"))
        pq.write_table(full.slice(50 * i, 50), paths[-1])
    idx = str(tmp_path / "idx")

    def build():
        return build_index(paths, idx, doc_schema(), content_col="text",
                           key_cols=["doc_id"], num_segments=4)

    units = build().segment_ids()
    assert len(units) == 4
    for _ in range(levels):
        merge_index(idx, group_size=2 if levels == 2 else 4)
    merged = mf.read_manifest(idx)
    assert len(merged.segments) == 1 and merged.num_docs == 200
    again = build()
    assert again.num_docs == 200
    assert again.segment_ids() == merged.segment_ids()
    assert merged.segments[0].lineage["covers"] == sorted(units)


def test_resume_after_merge_builds_missing_units(ray_session, tmp_path):
    """A failed build whose finished units were merged resumes by building
    only the units that never committed."""
    from rayfts.index.merge import merge_index

    path = str(tmp_path / "idx")
    with pytest.raises(Exception):
        build_index(f"{SF}/documents.parquet", path, doc_schema(),
                    content_col="text", key_cols=["doc_id"], num_segments=6,
                    _fail_segments=frozenset({2}))

    def adopt(m):  # register the finished units, as a resume would
        mf.recover_orphan_segments(path, m)
        return m

    committed = mf.commit(path, adopt)
    assert 0 < len(committed.segments) < 6
    merge_index(path, group_size=8)
    m = build_index(f"{SF}/documents.parquet", path, doc_schema(),
                    content_col="text", key_cols=["doc_id"])
    assert m.num_docs == 500
    assert len(m.segments) == 1 + 6 - len(committed.segments)


def test_resume_refuses_an_index_it_cannot_replan(ray_session, tmp_path):
    """A resume diffs planned unit ids against built ones, so over segments
    that no Parquet plan made (an older hash-partitioned build, a Dataset
    build, catalog commits) it would index every row again: it refuses,
    naming append_to_index, and the index keeps its documents."""
    import ray.data

    from rayfts.index.catalog import IndexCatalog

    src = f"{SF}/documents.parquet"
    hashed = str(tmp_path / "hashed")
    build_index(src, hashed, doc_schema(), content_col="text",
                key_cols=["doc_id"], num_segments=4)

    def pin_hash(m):
        m.build_params = {"partition_mode": "hash", "num_segments": 4}
        return m

    mf.commit(hashed, pin_hash)
    from_ds = str(tmp_path / "from_ds")
    build_index(ray.data.from_arrow(pq.read_table(src)), from_ds, doc_schema(),
                content_col="text")
    h = IndexCatalog(str(tmp_path / "cat")).create_index("c", doc_schema())
    h.add_documents([{"doc_id": 1, "text": "hello world"}])
    for path in (hashed, from_ds, h.path):
        before = mf.read_manifest(path)
        with pytest.raises(ValueError, match="append_to_index"):
            build_index(src, path, doc_schema(), content_col="text",
                        key_cols=["doc_id"])
        after = mf.read_manifest(path)
        assert (after.num_docs, after.version) == (before.num_docs, before.version)
    # a Dataset cannot resume a planned build either
    with pytest.raises(ValueError, match="append_to_index"):
        build_index(ray.data.from_arrow(pq.read_table(src)), hashed, doc_schema(),
                    content_col="text")
    assert mf.read_manifest(hashed).num_docs == 500


def test_source_without_parquet_files_fails(ray_session, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    idx = str(tmp_path / "idx")
    for source in (str(empty), []):
        with pytest.raises(ValueError, match="no Parquet files"):
            build_index(source, idx, doc_schema(), content_col="text")
    assert not mf.manifest_exists(idx)


def test_cli_build_then_append(ray_session, tmp_path, capsys, monkeypatch):
    """``rayfts build`` then ``rayfts append`` on two Parquet files: the
    appended segments sort after the built ones and ``rayfts info``
    counts every document. ``rayfts query`` then prints the in-process
    searcher's hits without starting Ray."""
    from rayfts.cli import main as cli_main

    full = pq.read_table(f"{SF}/documents.parquet")
    p1, p2 = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(full.slice(0, 320), p1)
    pq.write_table(full.slice(320), p2)
    idx = str(tmp_path / "idx")
    common = ["--index", idx, "--content-col", "text", "--key-cols", "doc_id"]

    def info():
        capsys.readouterr()
        assert cli_main(["info", "--index", idx]) == 0
        return json.loads(capsys.readouterr().out)

    assert cli_main(["build", "--input", p1, "--schema", doc_schema().to_json_str(),
                     "--num-segments", "4"] + common) == 0
    built = info()
    assert built["docs"] == 320 and len(built["segments"]) == 4
    # a path that matches nothing is read as given, so the append fails
    # instead of indexing only the paths that exist
    missing = str(tmp_path / "missing.parquet")
    with pytest.raises(FileNotFoundError, match="missing.parquet"):
        cli_main(["append", "--input", p2, missing] + common)
    assert info()["docs"] == 320
    assert cli_main(["append", "--input", p2] + common) == 0
    appended = info()
    assert appended["docs"] == 500
    ids = [s["id"] for s in appended["segments"]]
    assert ids[:4] == [s["id"] for s in built["segments"]] and len(ids) > 4
    assert sum(s["docs"] for s in appended["segments"][4:]) == 180

    def no_ray():
        raise AssertionError("rayfts query started Ray")

    monkeypatch.setattr("rayfts.cli._ensure_ray", no_ray)
    capsys.readouterr()
    assert cli_main(["query", "--index", idx, "--query", "merge sort",
                     "--limit", "5"]) == 0
    printed = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    want = [{"score": round(h["score"], 6), "doc": h["doc"],
             "snippet": h.get("snippet")}
            for h in Searcher(idx).query_string("merge sort", limit=5)]
    assert printed and printed == json.loads(json.dumps(want))
