"""The one segment writer (``rayfts.index.segment.write_segment``): every
attempt writes in its own scratch directory, leaves nothing behind when it
fails, and a later commit sweeps the scratch directories of dead attempts.
Every segment it writes is five files, and a merge's output id names its
source set. No Ray: the golden fixture's segments are built and merged in
process."""

import multiprocessing
import os
import socket
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rayfts.corpus import generate_shard
from rayfts.index import manifest as mf
from rayfts.index import segment
from rayfts.index.catalog import IndexCatalog
from rayfts.index.merge import commit_merge, merge_segment_group
from rayfts.index.schema import FieldDef, IndexSchema
from rayfts.index.segment import build_segment
from tests.test_format_golden import GOLDEN, MERGED, SOURCES, _digests, _schema

# fieldnorms and facet codes are columns of store.parquet
SEGMENT_FILES = {"postings.bin", "positions.bin", "terms.parquet",
                 "store.parquet", "segment.json"}


def _build_sources(root: str) -> IndexSchema:
    schema = _schema()
    for shard, sid in enumerate(SOURCES):
        build_segment(generate_shard(shard, 400, seed=11), schema, sid,
                      mf.segment_path(root, sid))
    return schema


def _scratch_name(segment_id: str, pid: int, host: str | None = None) -> str:
    return f"{segment_id}.{host or socket.gethostname()}-{pid}-0123abcd.tmp"


def _dead_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: the pid names no process
    return child.pid


def _entries(root: str) -> set[str]:
    return set(os.listdir(mf.segments_dir(root)))


def test_merge_leaves_other_attempts_scratch_alone(tmp_path):
    root = str(tmp_path)
    schema = _build_sources(root)
    out = mf.segment_path(root, MERGED)
    others = [out + ".tmp", os.path.join(
        mf.segments_dir(root), _scratch_name(MERGED, os.getpid()))]
    for d in others:
        os.makedirs(d)
        with open(os.path.join(d, "shard-00000.post"), "wb") as f:
            f.write(b"another attempt's bytes")

    merge_segment_group(root, schema.to_json(), SOURCES)

    assert _digests(out) == GOLDEN[MERGED]
    for d in others:
        assert os.listdir(d) == ["shard-00000.post"]
    assert _entries(root) == set(SOURCES) | {MERGED} | {
        os.path.basename(d) for d in others}


def test_merge_after_commit_keeps_committed_segment(tmp_path):
    """The rename of a second attempt at a committed segment fails; the
    attempt deletes its scratch directory and the first copy stays."""
    root = str(tmp_path)
    schema = _build_sources(root)
    merge_segment_group(root, schema.to_json(), SOURCES)
    out = mf.segment_path(root, MERGED)
    before = {f: os.stat(os.path.join(out, f)).st_mtime_ns for f in os.listdir(out)}

    info = merge_segment_group(root, schema.to_json(), SOURCES)

    assert info.segment_id == MERGED
    assert {f: os.stat(os.path.join(out, f)).st_mtime_ns
            for f in os.listdir(out)} == before
    assert _entries(root) == set(SOURCES) | {MERGED}


def _merge_at_barrier(root: str, schema_json: list, barrier) -> None:
    barrier.wait()
    merge_segment_group(root, schema_json, SOURCES)


def test_two_processes_merge_one_group(tmp_path):
    root = str(tmp_path)
    schema = _build_sources(root)
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    procs = [ctx.Process(target=_merge_at_barrier,
                         args=(root, schema.to_json(), barrier))
             for _ in range(2)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(120)
    assert [p.exitcode for p in procs] == [0, 0]
    assert _digests(mf.segment_path(root, MERGED)) == GOLDEN[MERGED]
    assert _entries(root) == set(SOURCES) | {MERGED}


def _fail_store_write(monkeypatch):
    write_table = segment.pq.write_table

    def failing(table, where, *args, **kwargs):
        if str(where).endswith(segment.STORE_FILE):
            raise OSError("injected write failure")
        return write_table(table, where, *args, **kwargs)

    monkeypatch.setattr(segment.pq, "write_table", failing)


def test_failed_build_leaves_nothing(tmp_path, monkeypatch):
    root = str(tmp_path)
    os.makedirs(mf.segments_dir(root))
    _fail_store_write(monkeypatch)
    with pytest.raises(OSError, match="injected"):
        build_segment(generate_shard(0, 50, seed=11), _schema(), SOURCES[0],
                      mf.segment_path(root, SOURCES[0]))
    assert _entries(root) == set()


def test_failed_merge_leaves_nothing(tmp_path, monkeypatch):
    root = str(tmp_path)
    schema = _build_sources(root)
    _fail_store_write(monkeypatch)
    with pytest.raises(OSError, match="injected"):
        merge_segment_group(root, schema.to_json(), SOURCES)
    assert _entries(root) == set(SOURCES)


def test_recovery_sweeps_dead_attempts_scratch(tmp_path):
    root = str(tmp_path)
    schema = _build_sources(root)
    dead, live = _dead_pid(), os.getpid()
    names = {
        "dead": _scratch_name(MERGED, dead),
        "live": _scratch_name(MERGED, live),
        "other host": _scratch_name(MERGED, dead, host="elsewhere.invalid"),
        "legacy": MERGED + ".tmp",
        "unparsed": f"{MERGED}.{socket.gethostname()}-{dead}-nothex00.tmp",
    }
    for name in names.values():
        os.makedirs(os.path.join(mf.segments_dir(root), name))
    m = mf.Manifest(name="idx", schema=schema)

    adopted = mf.recover_orphan_segments(root, m)

    assert sorted(s.segment_id for s in adopted) == SOURCES
    assert set(names.values()) <= _entries(root)  # adoption deletes nothing
    mf.commit(root, lambda _fresh: m)  # the adopting commit's sweep
    kept = {k for k, name in names.items() if name in _entries(root)}
    assert kept == {"live", "other host", "legacy", "unparsed"}


def test_facet_column_missing_from_table(tmp_path):
    """A facet field absent from an added ``pa.Table`` has no facet column
    in that segment's store: counting skips the segment, and a merge keeps
    the other segments' facet values and gives the segment's docs none."""
    schema = IndexSchema([
        FieldDef("body", "text", tokenizer="default"),
        FieldDef("cat", "facet"),
    ])
    h = IndexCatalog(str(tmp_path), auto_merge_min=0).create_index("fx", schema)
    h.add_documents(pa.table({"body": ["alpha one", "alpha two"],
                              "cat": ["/a/x", "/a/y"]}))
    h.add_documents(pa.table({"body": ["alpha three"]}))
    h.add_documents(pa.table({"body": ["alpha four"], "cat": ["/a/x"]}))
    ids = [s.segment_id for s in h.manifest.ordered_segments()]
    bare = segment.SegmentReader(mf.segment_path(h.path, ids[1]), h.manifest.schema)
    with pytest.raises(KeyError):
        bare.facet_dict("cat")
    want = [{"term": "/a/x", "count": 2}, {"term": "/a/y", "count": 1}]
    assert h.searcher().facet_counts("alpha", {"cat": ["/a"]}) == want

    info = merge_segment_group(h.path, h.manifest.schema.to_json(), ids)
    merged = segment.SegmentReader(mf.segment_path(h.path, info.segment_id),
                                   h.manifest.schema)
    codes, paths = merged.facet_dict("cat")
    assert [paths[c] if c >= 0 else None for c in codes] == [
        "/a/x", "/a/y", None, "/a/x"]


@pytest.mark.parametrize("facets", [False, True])
def test_segment_is_five_files(tmp_path, facets):
    fields = [FieldDef("body", "text", tokenizer="default", record="position")]
    if facets:
        fields.append(FieldDef("cat", "facet"))
    h = IndexCatalog(str(tmp_path), auto_merge_min=0).create_index(
        "five", IndexSchema(fields))
    for i in range(2):
        h.add_documents([{"body": f"alpha {i}", "cat": f"/top/{i}"}])
    ids = [s.segment_id for s in h.manifest.ordered_segments()]
    info = merge_segment_group(h.path, h.manifest.schema.to_json(), ids)
    for sid in ids + [info.segment_id]:
        assert set(os.listdir(mf.segment_path(h.path, sid))) == SEGMENT_FILES


def test_merged_ids_name_the_source_set(tmp_path):
    """Two groups with one first source and one size merge into two
    segments: a group planned before a segment sorted in between must not
    hand its output to the group planned after."""
    schema = IndexSchema([FieldDef("body", "text", tokenizer="default")])
    h = IndexCatalog(str(tmp_path), auto_merge_min=0).create_index("ids", schema)
    infos = [build_segment(pa.table({"body": [f"alpha from {tag}"]}), schema, sid,
                           mf.segment_path(h.path, sid))
             for sid, tag in (("a", "a"), ("b", "b"), ("ax", "x"))]
    h.add_segments(infos)
    merge_segment_group(h.path, schema.to_json(), ["a", "b"])  # a stale plan
    merged = merge_segment_group(h.path, schema.to_json(), ["a", "ax"])
    assert commit_merge(h.path, [["a", "ax"]], [merged]) is not None
    res = h.query_json({"query": {"term": {"body": "alpha"}}, "limit": 10})
    assert sorted(d.doc["body"][0] for d in res.docs) == [
        "alpha from a", "alpha from b", "alpha from x"]


def test_old_layout_fails_loudly(tmp_path):
    """A segment whose store has no fieldnorm columns (norms were a file of
    their own before) does not open: the error names it and says to
    rebuild."""
    schema = _schema()
    out = mf.segment_path(str(tmp_path), SOURCES[0])
    build_segment(generate_shard(0, 20, seed=11), schema, SOURCES[0], out)
    store = os.path.join(out, segment.STORE_FILE)
    docs = pq.read_table(store)
    pq.write_table(docs.drop_columns([c for c in docs.column_names
                                      if c.startswith(segment.NORM_PREFIX)]), store)
    segment._PARTS.clear()  # no norms cached by the build's write-through
    with pytest.raises(ValueError, match=f"{out}.*rebuild"):
        segment.open_reader(out, schema)


def test_reserved_store_columns_are_rejected(tmp_path):
    schema = IndexSchema([FieldDef("body", "text", tokenizer="default")])
    for name in ("__norm_body", "__facet_cat"):
        with pytest.raises(ValueError, match=name):
            build_segment(pa.table({"body": ["alpha"], name: ["x"]}), schema,
                          "seg", str(tmp_path / "seg"))
    assert not os.path.exists(tmp_path / "seg")
