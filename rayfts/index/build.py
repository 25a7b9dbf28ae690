"""Distributed index build: one zero-shuffle Ray Data pipeline.

Every segment is one unit of input built by one independent task; no
``repartition`` or ``groupby`` ever moves corpus rows, because segment
membership can be *any* disjoint cover of the input. A unit is either

- **a planned Parquet unit** (``build_index`` over parquet paths): the
  driver plans (file, row-group span, row span) units of about
  ``target_docs_per_segment`` rows from metadata only. The unit id
  ``seg-<sha16>`` hashes the path and spans, so re-planning the same input
  gives the same ids; the target is pinned in the manifest's
  ``build_params``, so a resume on any cluster size re-plans the same
  list and skips committed (or merged-away) units by a set diff; or
- **a block of a Dataset as it stands** (``build_index`` over a Dataset,
  and ``append_to_index``): one segment per block, with an id
  ``<max existing id>.a<version>.<host>-<pid>-<hex8>`` that sorts after
  every existing segment, is unique per attempt and names its driver. A
  Dataset's blocks cannot be re-planned, so a build over an index with
  such segments refuses to resume; new rows go in with ``append_to_index``.

::

    planned units | Dataset blocks
      -> map_batches(one unit per call)   slice, content_sha256, lineage,
                                          build_segment (tmp + rename)
      -> manifest.commit                  metadata only, atomic (the
                                          reference's add_segments pattern,
                                          SURVEY.md §3.3)

No corpus bytes cross the object store: this is the reference's own
scale-out design (independent segment construction plus a metadata-only
commit, ``/root/reference/test/segments.js:27-40``). Lineage (file, spans,
rows, content checksum) and build metrics live on each SegmentInfo.
Docids are deterministic: in-segment order is the unit's row order, and
global offsets follow manifest order (SURVEY.md §4 "ordering"). Output is
one directory per segment, never one giant file.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import socket
import time

import numpy as np
import pyarrow as pa

import ray
import ray.data

from rayfts.codec.fieldnorm import FieldNormCodec
from rayfts.index import manifest as mf
from rayfts.index.schema import IndexSchema
from rayfts.index.segment import SegmentInfo, build_segment

logger = logging.getLogger(__name__)

SHA_COL = "content_sha256"


def _sha256_hex(values: list) -> list[str]:
    return [
        hashlib.sha256(("" if v is None else str(v)).encode("utf-8")).hexdigest()
        for v in values
    ]


def _one_core() -> None:
    """One task = one core: Arrow's intra-op pool defaults to ALL machine
    cores, which oversubscribes the node when Ray runs one task per CPU
    (and falsifies scaling measurements)."""
    if pa.cpu_count() != 1:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)


def _build_unit(
    tbl: pa.Table, schema: IndexSchema, index_dir: str, segment_id: str,
    fieldnorm_codec: str, content_col: str, lineage: dict,
) -> str:
    """The one per-unit body: add ``content_sha256`` (unless the rows carry
    it), complete the lineage with the row count and the XOR of the
    content checksums, and build the segment. Returns its info as JSON."""
    if SHA_COL in tbl.column_names:
        shas = tbl[SHA_COL].to_pylist()
    else:
        shas = (_sha256_hex(tbl[content_col].to_pylist())
                if content_col in tbl.column_names else [""] * tbl.num_rows)
        tbl = tbl.append_column(SHA_COL, pa.array(shas, type=pa.string()))
    sha_np = np.frombuffer(b"".join(bytes.fromhex(s[:16]) for s in shas),
                           dtype=np.uint64)
    lineage = dict(lineage, rows=tbl.num_rows,
                   content_xor=f"{int(np.bitwise_xor.reduce(sha_np)):016x}")
    info = build_segment(
        tbl, schema, segment_id, mf.segment_path(index_dir, segment_id),
        fieldnorm_codec=fieldnorm_codec, lineage=lineage,
    )
    return json.dumps(info.to_json())


def _infos(rows: list[str]) -> pa.Table:
    return pa.table({"info": pa.array(rows, type=pa.string())})


def plan_units(paths: list[str], target_rows: int) -> list[dict]:
    """Driver-side, metadata-only: cover every (file, row-group) of the
    input with disjoint units of ~``target_rows`` rows. Row groups are the
    atomic I/O unit; a single huge row group is additionally split by row
    span (each sub-unit re-reads that row group and slices — documented
    tradeoff, only hit on pathological single-row-group files). The unit
    id (= segment id) hashes the file path + spans, so replanning the same
    input yields the same ids — that is what makes resume a pure set diff."""
    import pyarrow.parquet as pq

    units: list[dict] = []
    for path in sorted(paths):
        md = pq.ParquetFile(path).metadata
        rg_rows = [md.row_group(i).num_rows for i in range(md.num_row_groups)]
        start = 0
        while start < len(rg_rows):
            acc, end = 0, start
            while end < len(rg_rows) and (acc == 0 or acc + rg_rows[end] <= target_rows):
                acc += rg_rows[end]
                end += 1
            spans = [(0, acc)]
            if end - start == 1 and acc > 2 * target_rows:
                # one oversized row group: split by row span
                n_sub = (acc + target_rows - 1) // target_rows
                per = (acc + n_sub - 1) // n_sub
                spans = [(i * per, min((i + 1) * per, acc)) for i in range(n_sub)]
            for lo, hi in spans:
                sid = hashlib.sha256(
                    f"{path}|{start}-{end}|{lo}-{hi}|v1".encode()
                ).hexdigest()[:16]
                units.append({
                    "path": path, "rg_start": start, "rg_end": end,
                    "row_lo": lo, "row_hi": hi, "rows": hi - lo,
                    "segment_id": f"seg-{sid}",
                })
            start = end
    return units


def make_unit_builder(
    index_dir: str,
    schema_json: list,
    fieldnorm_codec: str,
    content_col: str,
    key_cols: list[str] | None,
    read_columns: list[str] | None,
    fail_ids: frozenset[str] = frozenset(),
):
    """map_batches fn over planned unit descriptors: read each unit's row
    groups with pruned columns, slice its row span, build one segment.
    The unit's file row order is its docid order, so no key sort is
    needed; ``key_cols`` matter only through ``read_columns``.
    ``fail_ids`` injects faults for the kill-and-resume tests."""

    def build_planned(batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        _one_core()
        schema = IndexSchema.from_json(schema_json)
        out = []
        for u in batch.to_pylist():
            if u["segment_id"] in fail_ids:
                raise RuntimeError(f"injected failure for {u['segment_id']}")
            tbl = pq.ParquetFile(u["path"]).read_row_groups(
                list(range(u["rg_start"], u["rg_end"])), columns=read_columns
            )
            if (u["row_lo"], u["row_hi"]) != (0, tbl.num_rows):
                tbl = tbl.slice(u["row_lo"], u["row_hi"] - u["row_lo"])
            out.append(_build_unit(
                tbl, schema, index_dir, u["segment_id"], fieldnorm_codec,
                content_col, {"path": u["path"],
                              "row_groups": [u["rg_start"], u["rg_end"]],
                              "row_span": [u["row_lo"], u["row_hi"]]}))
        return _infos(out)

    return build_planned


def _block_infos(ds, index_dir: str, manifest: mf.Manifest,
                 fieldnorm_codec: str, content_col: str):
    """One segment per block of ``ds`` as it stands. Ids extend the
    largest id of ``manifest``, so they sort after every segment it holds
    (existing docs keep their global docids); the version keeps successive
    generations apart, the driver's host and pid let the sweep delete the
    blocks its death leaves, and the suffix makes each attempt's id unique."""
    existing = manifest.segment_ids()
    gen = (f"{max(existing) if existing else 'seg-000000'}.a{manifest.version:04d}"
           f".{socket.gethostname()}-{os.getpid()}")
    schema_json = manifest.schema.to_json()

    def build_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _infos([])
        _one_core()
        return _infos([_build_unit(
            batch, IndexSchema.from_json(schema_json), index_dir,
            f"{gen}-{os.urandom(4).hex()}", fieldnorm_codec, content_col,
            {"source": "dataset"})])

    return ds.map_batches(build_block, batch_format="pyarrow", batch_size=None)


def _default_read_columns(
    schema: IndexSchema, content_col: str, key_cols: list[str] | None,
    paths: list[str],
) -> list[str]:
    """Column pruning for the read: the schema fields and the key and
    content columns that the first file has."""
    import pyarrow.parquet as pq

    available = pq.ParquetFile(paths[0]).schema_arrow.names
    want = [f.name for f in schema.fields] + [content_col] + list(key_cols or [])
    seen, out = set(), []
    for c in want:
        if c not in seen and c in available:
            seen.add(c)
            out.append(c)
    return out


def _parquet_paths(source: str | list[str]) -> list[str]:
    """Parquet files named by a path or a list of paths (a directory
    contributes its ``*.parquet`` files), sorted. A source that names none
    is an error, not an empty index."""
    paths = []
    for p in ([source] if isinstance(source, str) else source):
        if os.path.isdir(p):
            paths.extend(os.path.join(p, f) for f in os.listdir(p)
                         if f.endswith(".parquet"))
        else:
            paths.append(p)
    if not paths:
        raise ValueError(f"no Parquet files in {source!r}")
    return sorted(paths)


def cluster_cpus() -> int:
    try:
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8


def _is_plan(build_params: dict) -> bool:
    """Whether pinned ``build_params`` describe a planned Parquet build,
    the only kind a resume can re-plan."""
    return (build_params.get("partition_mode") == "input"
            and "target_docs_per_segment" in build_params)


def build_index(
    source,
    index_dir: str,
    schema: IndexSchema,
    *,
    index_name: str = "index",
    content_col: str = "content",
    key_cols: list[str] | None = None,
    num_segments: int | None = None,
    fieldnorm_codec: str = FieldNormCodec.TANTIVY_LIKE,
    resume: bool = True,
    columns: list[str] | None = None,
    target_docs_per_segment: int | None = None,
    _fail_segments: frozenset[int] = frozenset(),
) -> mf.Manifest:
    """Build (or resume building) an index from parquet paths or a Dataset.

    Parquet paths are planned into units of ``target_docs_per_segment``
    rows (default: the pinned value on a resume, else ``num_segments``
    units, else about two per CPU); ``columns`` (default: the schema's
    fields plus ``content_col`` and ``key_cols``) prunes the read. A
    Dataset builds one segment per block as it stands and takes no sizing
    argument: repartition it first to choose the segment count.

    Does NOT call ray.init(); Ray Data auto-initializes when standalone and
    the driver/bench own the session (driver contract, __ray_entry__.py).
    """
    t0 = time.time()
    if not isinstance(source, (str, list)):
        if num_segments or target_docs_per_segment:
            raise ValueError(
                "a Dataset builds one segment per block; num_segments and "
                "target_docs_per_segment size planned Parquet units only")
        manifest = _open_for_build(index_dir, index_name, schema, resume, {})
        return _commit_stream(
            _block_infos(source, index_dir, manifest, fieldnorm_codec, content_col),
            index_dir, t0)

    import pyarrow.parquet as pq

    paths = _parquet_paths(source)
    # resume must re-plan the IDENTICAL unit list even on a different
    # cluster size: the original target is pinned in the manifest
    if target_docs_per_segment is None and mf.manifest_exists(index_dir):
        target_docs_per_segment = mf.read_manifest(index_dir).build_params.get(
            "target_docs_per_segment"
        )
    if target_docs_per_segment is None:
        total_rows = sum(pq.ParquetFile(p).metadata.num_rows for p in paths)
        if num_segments:
            target_docs_per_segment = max(1, -(-total_rows // num_segments))
        else:
            target_docs_per_segment = max(1024, -(-total_rows // (2 * cluster_cpus())))
    units = plan_units(paths, target_docs_per_segment)
    if columns is None:
        columns = _default_read_columns(schema, content_col, key_cols, paths)

    manifest = _open_for_build(index_dir, index_name, schema, resume, {
        "partition_mode": "input",
        "target_docs_per_segment": int(target_docs_per_segment),
    })
    done = manifest.built_ids()
    todo = [u for u in units if u["segment_id"] not in done]
    if done:
        logger.info("resume: %d/%d units already committed", len(units) - len(todo), len(units))
    if not todo:
        return manifest
    fail_ids = frozenset(
        u["segment_id"] for i, u in enumerate(units) if i in _fail_segments
    )
    infos_ds = ray.data.from_items(todo, override_num_blocks=len(todo)).map_batches(
        make_unit_builder(index_dir, schema.to_json(), fieldnorm_codec,
                          content_col, key_cols, columns, fail_ids),
        batch_format="pyarrow",
    )
    return _commit_stream(infos_ds, index_dir, t0)


def _open_for_build(
    index_dir: str, index_name: str, schema: IndexSchema, resume: bool,
    build_params: dict,
) -> mf.Manifest:
    """Open-or-create the index for a build, in one commit: adopt orphan
    segment checkpoints, refuse to build over committed segments unless
    resuming a planned build (``build_params`` and the pinned ones both a
    plan), and pin ``build_params`` if none are pinned yet."""

    def open_or_create(manifest: mf.Manifest | None) -> mf.Manifest:
        if manifest is None:
            return mf.Manifest(name=index_name, schema=schema,
                               build_params=build_params)
        adopted = mf.recover_orphan_segments(index_dir, manifest)
        if adopted:
            logger.info("recovered %d orphan segment checkpoints", len(adopted))
        if manifest.segments and not resume:
            raise ValueError(f"index at {index_dir} already has segments and resume=False")
        if manifest.segments and not (_is_plan(build_params)
                                      and _is_plan(manifest.build_params)):
            # a resume diffs planned unit ids against built ones; without
            # a plan on both sides it would index every row again
            raise ValueError(
                f"index at {index_dir} holds segments that this build cannot "
                f"re-plan (pinned build_params {manifest.build_params}); "
                "add new rows with append_to_index")
        manifest.build_params = manifest.build_params or build_params
        return manifest

    return mf.commit(index_dir, open_or_create)


def _commit_stream(infos_ds, index_dir: str, t0: float) -> mf.Manifest:
    """Stream segment infos and register them in one commit per batch of
    64. A crashed driver leaves its last batch's finished units on disk
    unregistered; the next build's opening commit adopts them."""
    for batch in infos_ds.iter_batches(batch_size=64, batch_format="pyarrow"):
        infos = [
            SegmentInfo.from_json(json.loads(s)) for s in batch["info"].to_pylist()
        ]

        def register(manifest: mf.Manifest) -> mf.Manifest | None:
            fresh = sorted(
                (i for i in infos if i.segment_id not in manifest.segment_ids()),
                key=lambda i: i.segment_id,
            )
            return manifest.add_segments(fresh) if fresh else None

        mf.commit(index_dir, register)
    manifest = mf.read_manifest(index_dir)
    logger.info(
        "build_index: %d segments %d docs in %.1fs",
        len(manifest.segments), manifest.num_docs, time.time() - t0,
    )
    return manifest


def append_to_index(
    source,
    index_dir: str,
    *,
    content_col: str = "content",
    key_cols: list[str] | None = None,
    columns: list[str] | None = None,
) -> mf.Manifest:
    """Distributed INCREMENTAL ingest: build new segments from a Dataset
    or parquet paths and register them in an EXISTING index — the
    Ray-scale counterpart of the reference's per-batch ``add_documents``
    commits (one call = one atomic manifest version bump; serving picks
    it up via ``SearchService.refresh()``, ReloadPolicy::OnCommit).

    Each block of the Dataset (parquet paths are read as one, pruned as in
    ``build_index``) becomes one segment whose id sorts after every
    current segment, so existing docs keep their global docids. The
    fieldnorm codec is inherited from the index's existing segments
    (mixing codecs would skew BM25 norms)."""
    manifest = mf.read_manifest(index_dir)
    ordered = manifest.ordered_segments()
    fieldnorm_codec = (ordered[0].fieldnorm_codec if ordered
                       else FieldNormCodec.TANTIVY_LIKE)
    if isinstance(source, (str, list)):
        paths = _parquet_paths(source)
        source = ray.data.read_parquet(paths, columns=columns or _default_read_columns(
            manifest.schema, content_col, key_cols, paths))
    infos = [SegmentInfo.from_json(json.loads(r["info"])) for r in _block_infos(
        source, index_dir, manifest, fieldnorm_codec, content_col).take_all()]
    # committed segment dirs are durable; the manifest commit is the
    # atomic commit point
    return mf.commit(index_dir, lambda m: m.add_segments(infos))
