"""The manifest's one commit point, ``manifest.commit``; none of these
tests starts Ray.

- ``commit`` bumps the version only when it writes, and writes nothing
  when its mutation aborts or raises;
- ``commit_merge`` is a compare-and-swap: a merge whose sources changed
  aborts, and deletes its output only if the manifest does not register it;
- orphan adoption skips the output of a merge that died before its swap,
  the sources of one that died after it, and Dataset blocks;
- writers in separate processes, plus a merger, lose no commit.
"""

import json
import multiprocessing
import os
import time

import pyarrow as pa
import pytest

from rayfts.index import manifest as mf
from rayfts.index.catalog import IndexCatalog
from rayfts.index.merge import (commit_merge, merge_segment_group,
                                plan_log_merge_groups)
from rayfts.index.schema import FieldDef, IndexSchema
from rayfts.index.segment import build_segment
from rayfts.query.searcher import Searcher

WRITERS, BATCHES, DOCS_PER_BATCH = 4, 10, 2


def _schema():
    return IndexSchema([
        FieldDef("body", "text", stored=True),
        FieldDef("wid", "u64", indexed=False, stored=True, fast=True),
    ])


def _index(tmp_path, batches):
    """A catalog index of ``batches`` one-segment commits of two docs each."""
    idx = IndexCatalog(str(tmp_path), auto_merge_min=0).create_index("i", _schema())
    for b in range(batches):
        idx.add_documents([{"body": "hello world", "wid": 2 * b},
                           {"body": "other words", "wid": 2 * b + 1}])
    return idx


def _rows(wid):
    return pa.Table.from_pylist([{"body": "hello again", "wid": wid}])


def test_commit_bumps_version_only_when_it_writes(tmp_path):
    path = str(tmp_path / "i")
    created = mf.commit(path, lambda m: mf.Manifest(name="i", schema=_schema()))
    assert created.version == 0 == mf.read_manifest(path).version
    assert mf.commit(path, lambda m: None) is None

    def boom(m):
        m.name = "changed"
        raise RuntimeError("mutation failed")

    with pytest.raises(RuntimeError):
        mf.commit(path, boom)
    assert mf.read_manifest(path).name == "i"
    assert mf.read_manifest(path).version == 0
    assert mf.commit(path, lambda m: m).version == 1
    assert mf.read_manifest(path).version == 1


def test_create_index_rejects_an_existing_index(tmp_path):
    cat = IndexCatalog(str(tmp_path))
    cat.create_index("i", _schema())
    with pytest.raises(ValueError, match="already exists"):
        cat.create_index("i", _schema())
    assert cat.open("i").manifest.version == 0


def test_commit_merge_aborts_on_changed_sources(tmp_path):
    idx = _index(tmp_path, 4)
    m = idx.manifest
    ids = [s.segment_id for s in m.ordered_segments()]
    group = ids[:3]
    info = merge_segment_group(idx.path, m.schema.to_json(), group)
    out_dir = mf.segment_path(idx.path, info.segment_id)

    # the same group merged twice: the first swap wins; the second aborts
    # and keeps the directory the first one registered
    assert commit_merge(idx.path, [group], [info]).version == m.version + 1
    assert commit_merge(idx.path, [group], [info]) is None
    assert os.path.isdir(out_dir)
    assert idx.manifest.num_docs == 8

    # a group that is not contiguous in docid order aborts and deletes
    # its unregistered output
    ids = [s.segment_id for s in idx.manifest.ordered_segments()]
    assert len(ids) == 2
    stale = merge_segment_group(idx.path, m.schema.to_json(), ids)
    mf.commit(idx.path, lambda m: m.add_segments([
        build_segment(_rows(100), _schema(), ids[0] + "x",
                      mf.segment_path(idx.path, ids[0] + "x"))]))
    assert commit_merge(idx.path, [ids], [stale]) is None
    assert not os.path.exists(mf.segment_path(idx.path, stale.segment_id))
    assert idx.manifest.num_docs == 9
    assert Searcher(idx.path).count({"term": {"body": "hello"}}) == 5


def test_orphan_merge_output_is_not_adopted(tmp_path):
    """A merge killed before its swap leaves its output unregistered while
    its sources stay registered; adopting it would count them twice. A
    Dataset block left by a failed or still running ``append_to_index``
    is not adopted either, and stays on disk."""
    idx = _index(tmp_path, 4)
    m = idx.manifest
    merge_segment_group(idx.path, m.schema.to_json(),
                        [s.segment_id for s in m.ordered_segments()[:3]])
    block = build_segment(_rows(101), _schema(), "seg-999999-block",
                          mf.segment_path(idx.path, "seg-999999-block"),
                          lineage={"source": "dataset"})
    orphan = build_segment(_rows(100), _schema(), "seg-999999-orphan",
                           mf.segment_path(idx.path, "seg-999999-orphan"))

    adopted = mf.recover_orphan_segments(idx.path, m)
    assert [s.segment_id for s in adopted] == [orphan.segment_id]
    assert os.path.isdir(mf.segment_path(idx.path, block.segment_id))
    assert m.num_docs == 9
    assert idx.manifest.num_docs == 8  # adoption itself writes nothing
    assert Searcher(idx.path).count({"term": {"body": "hello"}}) == 4


def _merge_killed_before_deletes(idx, monkeypatch, group):
    """Merge and swap ``group`` as a driver killed right after the swap
    would: the source directories stay on disk."""
    import rayfts.index.merge as merge_mod

    m = idx.manifest
    info = merge_segment_group(idx.path, m.schema.to_json(), group)
    with monkeypatch.context() as patch:
        patch.setattr(merge_mod.shutil, "rmtree", lambda *a, **k: None)
        assert commit_merge(idx.path, [group], [info]) is not None
    assert all(os.path.isdir(mf.segment_path(idx.path, s)) for s in group)
    return info


def test_sources_left_by_a_merge_killed_after_its_swap_are_not_adopted(
        tmp_path, monkeypatch):
    idx = _index(tmp_path, 4)
    group = [s.segment_id for s in idx.manifest.ordered_segments()[:3]]
    _merge_killed_before_deletes(idx, monkeypatch, group)

    m = idx.manifest
    assert m.num_docs == 8
    assert mf.recover_orphan_segments(idx.path, m) == []
    assert m.num_docs == 8


def test_retiring_a_merge_output_removes_its_leftover_sources(
        tmp_path, monkeypatch):
    """One merge level up, the leftover sources are listed by no
    registered segment any more, so the merge that retires their output
    deletes them."""
    idx = _index(tmp_path, 4)
    group = [s.segment_id for s in idx.manifest.ordered_segments()[:3]]
    first = _merge_killed_before_deletes(idx, monkeypatch, group)

    m = idx.manifest
    top = [s.segment_id for s in m.ordered_segments()]
    assert top[0] == first.segment_id and len(top) == 2
    info = merge_segment_group(idx.path, m.schema.to_json(), top)
    assert commit_merge(idx.path, [top], [info]) is not None
    assert os.listdir(mf.segments_dir(idx.path)) == [info.segment_id]

    m = idx.manifest
    assert mf.recover_orphan_segments(idx.path, m) == []
    assert m.num_docs == 8
    assert Searcher(idx.path).count({"term": {"body": "hello"}}) == 4


def _recording_commit(versions):
    commit = mf.commit

    def recording(index_dir, mutate):
        m = commit(index_dir, mutate)
        if m is not None:
            versions.append(m.version)
        return m

    return recording


def _writer(root, w, out):
    versions = []
    mf.commit = _recording_commit(versions)
    idx = IndexCatalog(root, auto_merge_min=0).open("i")
    for b in range(BATCHES):
        first = (w * BATCHES + b) * DOCS_PER_BATCH
        idx.add_documents([{"body": f"common w{w} b{b}", "wid": first + d}
                           for d in range(DOCS_PER_BATCH)])
    with open(out, "w") as f:
        json.dump(versions, f)


def _merger(root, stop, out):
    """Merge contiguous runs until ``stop`` exists, then once more."""
    versions = []
    mf.commit = _recording_commit(versions)
    path = os.path.join(root, "i")
    while True:
        last = os.path.exists(stop)
        m = mf.read_manifest(path)
        groups = plan_log_merge_groups(m.ordered_segments(), min_merge=2,
                                       max_merge=4)
        if groups:
            infos = [merge_segment_group(path, m.schema.to_json(), g)
                     for g in groups]
            commit_merge(path, groups, infos)
        elif not last:
            time.sleep(0.01)
        if last:
            break
    with open(out, "w") as f:
        json.dump(versions, f)


def test_concurrent_writers_and_merger_lose_no_commit(tmp_path):
    root = str(tmp_path)
    IndexCatalog(root, auto_merge_min=0).create_index("i", _schema())
    path = os.path.join(root, "i")
    outs = [str(tmp_path / f"writer{w}.json") for w in range(WRITERS)]
    merged_out, stop = str(tmp_path / "merger.json"), str(tmp_path / "stop")
    ctx = multiprocessing.get_context("spawn")
    writers = [ctx.Process(target=_writer, args=(root, w, outs[w]))
               for w in range(WRITERS)]
    merger = ctx.Process(target=_merger, args=(root, stop, merged_out))
    procs = writers + [merger]
    deadline = time.monotonic() + 120
    try:
        for p in procs:
            p.start()
        for p in writers:
            p.join(max(0.0, deadline - time.monotonic()))
        open(stop, "w").close()
        merger.join(max(0.0, deadline - time.monotonic()))
        assert [p.exitcode for p in procs] == [0] * len(procs)
    finally:
        for p in procs:
            if p.is_alive():
                p.kill()
                p.join()

    m = mf.read_manifest(path)
    total = WRITERS * BATCHES * DOCS_PER_BATCH
    hits = Searcher(path).query_string("common", limit=2 * total)
    assert sorted(h["doc"]["wid"][0] for h in hits) == list(range(total))
    assert m.num_docs == total

    def load(out):
        with open(out) as f:
            return json.load(f)

    per_writer = [load(out) for out in outs]
    merges = load(merged_out)
    assert merges, "the merger committed no merge"
    for versions in per_writer:
        assert len(versions) == BATCHES
        assert versions == sorted(set(versions))
    every = [v for vs in per_writer + [merges] for v in vs]
    assert len(every) == len(set(every)) and max(every) == m.version

    assert sorted(os.listdir(mf.segments_dir(path))) == sorted(m.segment_ids())
