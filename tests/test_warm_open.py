"""Freshly written segments open warm: ``write_segment`` puts each new
segment's term table and norms (columns of its store) in the process's
parts cache, a reader that misses fills it, and a merge reads its
sources through the live readers the index's searcher holds. Warm
answers equal cold ones."""

import json
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
from rayfts.index.segment import (STORE_FILE, TERMS_FILE, SegmentReader,
                                  build_segment, open_reader)
from rayfts.query.searcher import Searcher

SCHEMA = IndexSchema([
    FieldDef("body", "text", tokenizer="default", record="position"),
    FieldDef("tag", "text", tokenizer="raw", record="basic"),
    FieldDef("id", "text", indexed=False),
])
WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "theta", "kappa"]
QUERIES = ["alpha", "beta gamma", "+delta -zeta", '"alpha beta"', "tag:red"]


def _docs(rng, n: int, tag: str = "red") -> list[dict]:
    return [{"id": f"d{i}", "tag": tag,
             "body": " ".join(rng.choice(WORDS, int(rng.integers(2, 8))))}
            for i in range(n)]


def _dict_arrays(reader: SegmentReader, field: str) -> dict:
    return {k: (v.to_pylist() if isinstance(v, pa.Array) else v.tolist())
            for k, v in reader.term_dict(field).items()}


def _reader_state(reader: SegmentReader) -> dict:
    return {f.name: (_dict_arrays(reader, f.name), reader.norms(f.name).tolist())
            for f in SCHEMA.indexed_fields}


def _top_k(s: Searcher) -> list:
    return [[(h.doc_id, round(h.score, 6)) for h in s.top_k(q, 10)] for q in QUERIES]


@pytest.fixture()
def file_reads(monkeypatch):
    """``(how, path)`` per read through ``ParquetFile`` or ``read_table``."""
    seen: list[tuple[str, str]] = []

    def recording(how, real):
        def call(source, *args, **kwargs):
            seen.append((how, str(source)))
            return real(source, *args, **kwargs)
        return call

    monkeypatch.setattr(pq, "ParquetFile", recording("ParquetFile", pq.ParquetFile))
    monkeypatch.setattr(pq, "read_table", recording("read_table", pq.read_table))
    return seen


def _norm_reads(reads) -> list:
    """Norm loads: column reads (``ParquetFile``) of a store. A whole
    store read (``read_table``) is a document fetch."""
    return [p for how, p in reads if how == "ParquetFile" and p.endswith(STORE_FILE)]


def _parsed(reads) -> list:
    """Reads that parse a term table or norms."""
    return [p for _, p in reads if p.endswith(TERMS_FILE)] + _norm_reads(reads)


@pytest.fixture()
def reader_opens(monkeypatch):
    """A list that grows by one path per SegmentReader constructed."""
    opened: list[str] = []
    init = SegmentReader.__init__

    def counting(self, path, schema):
        opened.append(path)
        init(self, path, schema)

    monkeypatch.setattr(SegmentReader, "__init__", counting)
    return opened


def test_query_after_commit_parses_no_terms_or_norms(tmp_path, file_reads):
    h = IndexCatalog(str(tmp_path / "live"), auto_merge_min=0).create_index(
        "w", SCHEMA)
    rng = np.random.default_rng(11)
    for c in range(3):
        h.add_documents(_docs(rng, 6, tag="red" if c % 2 else "blue"))
        file_reads.clear()
        assert h.query("alpha", 5)
        assert not _parsed(file_reads), file_reads
    warm = h.searcher()
    warm_state = [_reader_state(r) for r in warm.readers]
    warm_top = _top_k(warm)

    # cold: an empty parts cache, fresh readers at the same paths, and a
    # fresh searcher over a copy of the index
    segment._PARTS.clear()
    file_reads.clear()
    cold_state = [_reader_state(SegmentReader(r.path, SCHEMA))
                  for r in warm.readers]
    assert sum(p.endswith(TERMS_FILE) for _, p in file_reads) == len(warm.readers)
    assert len(_norm_reads(file_reads)) == len(warm.readers)
    assert cold_state == warm_state
    cold_dir = str(tmp_path / "cold")
    shutil.copytree(h.path, cold_dir)
    segment._PARTS.clear()
    assert _top_k(Searcher(cold_dir)) == warm_top


def test_rebuilt_segment_never_gets_the_old_entry(tmp_path):
    """A segment rewritten at the same path, by this process's writer or
    by another writer whose directory is renamed in, reads its own term
    table and norms, never the old segment's cached ones."""
    out = str(tmp_path / "idx" / "segments" / "seg-a")
    rng = np.random.default_rng(5)
    states = []
    for rebuild, tag in enumerate(["red", "blue", "green", "white"]):
        table = pa.Table.from_pylist(_docs(rng, 4 + rebuild, tag=tag))
        old = open_reader(out, SCHEMA) if rebuild else None
        if old is not None:
            _reader_state(old)  # the old segment's entry is cached
        if rebuild % 2:
            # another writer: built beside the old segment, so its
            # segment.json has another inode, then renamed onto the path
            other = str(tmp_path / f"other-{rebuild}")
            build_segment(table, SCHEMA, "seg-a", other)
            shutil.rmtree(out)
            os.rename(other, out)
        else:
            if old is not None:
                shutil.rmtree(out)
            build_segment(table, SCHEMA, "seg-a", out)
        del old
        warm = _reader_state(open_reader(out, SCHEMA))
        assert _dict_arrays(open_reader(out, SCHEMA), "tag")["terms_pa"] == [tag]
        segment._PARTS.clear()
        assert _reader_state(SegmentReader(out, SCHEMA)) == warm
        states.append(warm)
    assert all(a != b for a, b in zip(states, states[1:]))


def test_parts_cache_is_bounded(tmp_path):
    segment._PARTS.clear()
    rng = np.random.default_rng(9)
    paths = []
    for i in range(40):
        out = str(tmp_path / f"seg-{i:03d}")
        build_segment(pa.Table.from_pylist(_docs(rng, 3)), SCHEMA, f"seg-{i:03d}", out)
        paths.append(os.path.abspath(out))
        assert len(segment._PARTS) <= segment._PARTS_MAX == 16
    assert [k[0] for k in segment._PARTS] == paths[-16:]


def test_auto_merge_reads_live_sources_through_their_readers(
        tmp_path, reader_opens, file_reads):
    h = IndexCatalog(str(tmp_path), auto_merge_min=3).create_index("m", SCHEMA)
    rng = np.random.default_rng(3)
    for _ in range(2):
        h.add_documents(_docs(rng, 5))
        h.query("alpha")
    live = [r.path for r in h.searcher().readers]
    reader_opens.clear()
    file_reads.clear()
    h.add_documents(_docs(rng, 5))  # the third commit merges all three
    assert len(h.manifest.segments) == 1
    # the merge opened only the commit's own segment, which its write
    # left warm; the two live sources it read through the searcher's readers
    assert len(reader_opens) == 1 and reader_opens[0] not in live
    assert not _parsed(file_reads)
    merged = h.searcher()
    reader_opens.clear()
    file_reads.clear()
    want = _top_k(merged)
    assert not _parsed(file_reads)
    segment._PARTS.clear()
    cold_dir = str(tmp_path / "cold")
    shutil.copytree(h.path, cold_dir)
    assert _top_k(Searcher(cold_dir)) == want


def test_manifest_and_segment_json_are_one_json_dumps(tmp_path):
    h = IndexCatalog(str(tmp_path), auto_merge_min=0).create_index("j", SCHEMA)
    info = h.add_documents(_docs(np.random.default_rng(1), 3))
    with open(mf.manifest_path(h.path), "rb") as f:
        assert f.read() == json.dumps(mf.read_manifest(h.path).to_json()).encode()
    meta = os.path.join(mf.segment_path(h.path, info.segment_id), segment.META_FILE)
    with open(meta, "rb") as f:
        assert f.read() == json.dumps(info.to_json()).encode()
