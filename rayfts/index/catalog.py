"""IndexCatalog: a root directory holding many named indexes — the
Ray-native equivalent of the reference's catalog
(``/root/reference/src-rust/index.rs:18-21``: base dir -> named index
subdirectories; startup scan treats every subdir with a meta.json as an
index, ``index.rs:49-87``).

DDL surface (reference RPC methods, ``main.rs:34-43``):
create_index, create_ram_index (in-memory, tests), index_exists,
delete_index, plus the JS conveniences read_meta/segment_info
(``catalog.js:67-100``) and the distributed-build primitive
add_segments (``index.rs:286-324``).
"""

from __future__ import annotations

import os
import shutil
import uuid
import weakref

import pyarrow as pa

from rayfts.codec.fieldnorm import FieldNormCodec
from rayfts.index import manifest as mf
from rayfts.index.schema import IndexSchema
from rayfts.index.segment import SegmentInfo, build_segment
from rayfts.query.searcher import Searcher


class Index:
    """Handle to one named index (reference ``IndexHandle``,
    ``index.rs:149-155``): lazily-built searcher, cached per handle."""

    def __init__(self, catalog: "IndexCatalog", name: str):
        self.catalog = catalog
        self.name = name
        self.path = os.path.join(catalog.root, name)
        self._searcher: Searcher | None = None

    @property
    def manifest(self) -> mf.Manifest:
        return mf.read_manifest(self.path)

    def searcher(self) -> Searcher:
        """Reload-on-commit: a new manifest version invalidates the cached
        searcher (reference ``ReloadPolicy::OnCommit``, ``index.rs:219``).
        The new searcher is built while the old one still holds its
        readers, so it reuses them for every unchanged segment and opens
        only the commit's new or merged segments."""
        m = self.manifest
        if self._searcher is None or m.version != self._searcher.manifest.version:
            self._searcher = Searcher(self.path, manifest=m)
        return self._searcher

    # -- write path ----------------------------------------------------
    def add_documents(self, docs: list[dict] | pa.Table) -> SegmentInfo:
        """Local (non-Ray) ingest convenience: one call = one new committed
        segment, mirroring the reference's one-commit-per-batch semantics
        (``index.rs:186-191``). Unknown fields are dropped (with the same
        tolerance as ``index.rs:176-179``); array values are multi-valued
        fields. For bulk builds use ``rayfts.index.build.build_index``."""
        m = self.manifest
        schema = m.schema
        if isinstance(docs, pa.Table):
            table = docs
        else:
            # unknown fields dropped; schema fields ABSENT from a doc are
            # null (reference tolerance: a doc simply lacks the field,
            # index.rs:176-179 — it must not fail the whole batch); text
            # fields stringify scalars (the JSON bridge hands through
            # numbers; the engine's segment writer already str()s values)
            def _norm_value(fdef, v):
                if v is None or fdef.type != "text":
                    return v
                if isinstance(v, (list, tuple)):
                    return [None if x is None else str(x) for x in v]
                return v if isinstance(v, str) else str(v)

            norm = [
                {f.name: _norm_value(f, d.get(f.name)) for f in schema.fields}
                for d in docs
            ]
            # a batch mixing scalar and list values for one text field
            # would break Arrow's type inference: promote that field's
            # scalars to single-element lists (retrieval normalizes every
            # value to a list anyway)
            for f in schema.fields:
                if f.type != "text":
                    continue
                if any(isinstance(nd[f.name], list) for nd in norm):
                    for nd in norm:
                        v = nd[f.name]
                        if v is not None and not isinstance(v, list):
                            nd[f.name] = [v]
            # flatten nothing: list values become pa list columns (the
            # multi-valued model, catalog.js:131-144 -> pa.list_)
            table = pa.Table.from_pylist(norm)
        # version-prefixed id: ordered_segments() sorts lexicographically, so
        # commit order == global-docid order (deterministic tie-breaks); the
        # uuid suffix keeps ids unique across indexes for segment exchange
        seg_id = f"seg-{m.version:06d}-{uuid.uuid4().hex[:8]}"
        info = build_segment(
            table,
            schema,
            seg_id,
            mf.segment_path(self.path, seg_id),
            fieldnorm_codec=self.catalog.fieldnorm_codec,
            lineage={"source": "add_documents", "rows": table.num_rows},
        )
        self._maybe_auto_merge(mf.commit(self.path, lambda m: m.add_segments([info])))
        return info

    def _maybe_auto_merge(self, m: mf.Manifest) -> None:
        """Post-commit merge check — the reference gets this from tantivy's
        background LogMergePolicy (``main.rs:7-17`` design notes); here the
        same tiered policy runs synchronously in-process when a level
        accumulates ``catalog.auto_merge_min`` contiguous segments. Query
        results are invariant across the swap (merge preserves docid
        order), mirroring ReloadPolicy::OnCommit visibility. ``m`` is the
        manifest the commit just wrote."""
        min_merge = self.catalog.auto_merge_min
        if not min_merge:
            return
        from rayfts.index.merge import (commit_merge, merge_segment_group,
                                        plan_log_merge_groups)

        groups = plan_log_merge_groups(
            m.ordered_segments(), min_merge=min_merge, max_merge=2 * min_merge
        )
        if not groups:
            return
        infos = [
            merge_segment_group(self.path, m.schema.to_json(), g) for g in groups
        ]
        commit_merge(self.path, groups, infos)

    def add_segments(self, infos: list[SegmentInfo]) -> None:
        """Register segments built elsewhere (their directories must already
        sit under this index's segments/ dir) — metadata-only commit, the
        reference's scale-out primitive (``test/segments.js:27-40``)."""
        mf.commit(self.path, lambda m: m.add_segments(infos))

    def segment_info(self) -> list[dict]:
        return [s.to_json() for s in self.manifest.segments]

    # -- read path -----------------------------------------------------
    def query(self, query_string: str, limit: int = 10, snippet_field: str | None = None):
        return self.searcher().query_string(query_string, limit, snippet_field)

    def query_json(self, search: dict):
        return self.searcher().search(search)


class IndexCatalog:
    def __init__(self, root: str, fieldnorm_codec: str = FieldNormCodec.TANTIVY_LIKE,
                 auto_merge_min: int = 8):
        self.root = root
        self.fieldnorm_codec = fieldnorm_codec
        # LogMergePolicy-like auto-compaction after add_documents commits
        # (0/None disables); bulk builds (rayfts.index.build) merge
        # explicitly instead
        self.auto_merge_min = auto_merge_min
        os.makedirs(root, exist_ok=True)
        # held weakly: a handle refers to its catalog, so strong entries
        # would make a cycle that keeps dropped handles' searchers and
        # readers alive until the cyclic garbage collector runs
        self._handles: weakref.WeakValueDictionary[str, Index] = (
            weakref.WeakValueDictionary())

    def create_index(self, name: str, schema: IndexSchema | list | str) -> Index:
        if not isinstance(schema, IndexSchema):
            schema = IndexSchema.from_json(schema)
        path = os.path.join(self.root, name)

        def create(m: mf.Manifest | None) -> mf.Manifest:
            if m is not None:
                raise ValueError(f"index {name!r} already exists")
            return mf.Manifest(name=name, schema=schema)

        os.makedirs(mf.segments_dir(path), exist_ok=True)
        mf.commit(path, create)
        return self.open(name)

    def index_exists(self, name: str) -> bool:
        return mf.manifest_exists(os.path.join(self.root, name))

    def delete_index(self, name: str) -> None:
        path = os.path.join(self.root, name)
        if not mf.manifest_exists(path):
            raise KeyError(f"no index {name!r}")
        shutil.rmtree(path)
        self._handles.pop(name, None)

    def list_indexes(self) -> list[str]:
        out = []
        for entry in sorted(os.listdir(self.root)):
            if mf.manifest_exists(os.path.join(self.root, entry)):
                out.append(entry)
        return out

    def open(self, name: str) -> Index:
        """The index's handle: the same one while any caller holds it."""
        if not self.index_exists(name):
            raise KeyError(f"no index {name!r}")
        h = self._handles.get(name)
        if h is None:
            h = self._handles[name] = Index(self, name)
        return h

    def query_multi(self, names: list[str], query_string: str, limit: int = 100):
        """Same string query against N indexes; fixed limit 100 in the
        reference (``index.rs:131-146``); results keyed by index name,
        NOT globally merged."""
        return [(n, self.open(n).query(query_string, limit)) for n in names]


def create_ram_index(schema: IndexSchema, docs: list[dict], tmp_root: str | None = None) -> Index:
    """In-memory-ish index for tests (reference ``create_ram_index``,
    ``index.rs:112-117``): a throwaway catalog under a temp dir."""
    import tempfile

    root = tmp_root or tempfile.mkdtemp(prefix="rayfts-ram-")
    cat = IndexCatalog(root)
    idx = cat.create_index("ram", schema)
    if docs:
        idx.add_documents(docs)
    return idx
