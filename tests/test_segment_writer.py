"""The one segment writer (``rayfts.index.segment.write_segment``): every
attempt writes in its own scratch directory, leaves nothing behind when it
fails, and a later commit sweeps the scratch directories of dead attempts.
No Ray: the golden fixture's segments are built and merged in process."""

import multiprocessing
import os
import socket
import subprocess
import sys

import pyarrow as pa
import pytest

from rayfts.corpus import generate_shard
from rayfts.index import manifest as mf
from rayfts.index import segment
from rayfts.index.catalog import IndexCatalog
from rayfts.index.merge import merge_segment_group
from rayfts.index.schema import FieldDef, IndexSchema
from rayfts.index.segment import build_segment
from tests.test_format_golden import GOLDEN, MERGED, SOURCES, _digests, _schema


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


def _fail_facets(monkeypatch):
    def boom(*_args):
        raise OSError("injected write failure")

    monkeypatch.setattr(segment, "write_facet_sidecar", boom)


def test_failed_build_leaves_nothing(tmp_path, monkeypatch):
    root = str(tmp_path)
    os.makedirs(mf.segments_dir(root))
    _fail_facets(monkeypatch)
    with pytest.raises(OSError, match="injected"):
        build_segment(generate_shard(0, 50, seed=11), _schema(), SOURCES[0],
                      mf.segment_path(root, SOURCES[0]))
    assert _entries(root) == set()


def test_failed_merge_leaves_nothing(tmp_path, monkeypatch):
    root = str(tmp_path)
    schema = _build_sources(root)
    _fail_facets(monkeypatch)
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
    """A facet field absent from an added ``pa.Table`` has no sidecar entry
    in that segment: counting skips the segment, and a merge keeps the
    other segments' facet values and gives the segment's docs none."""
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
