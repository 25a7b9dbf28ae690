"""Distributed index build: a resumable Ray Data pipeline.

Two partitioning modes:

**``partition_mode="input"`` (default for parquet sources) — zero-shuffle.**
The driver plans work units from parquet METADATA only (file x row-group
spans, ~``target_docs_per_segment`` rows each); each unit is one segment
built by one independent task::

    from_items(units, one block per unit)
      -> map_batches(build_unit)      read the unit's row groups (pruned
                                      columns), sha256 + doc key, sort by
                                      key, vectorized inversion, atomic
                                      tmp+rename segment write
      -> driver manifest commit       metadata-only, atomic (the reference's
                                      add_segments pattern, SURVEY.md §3.3)

No corpus bytes ever cross the object store — this is the reference's own
scale-out design (independent segment construction + metadata-only commit,
``/root/reference/test/segments.js:27-40``) and the only shape that works
at 100 TB: an all-to-all shuffle of the raw corpus is never needed because
segment membership can be *any* disjoint cover of the input. Resume =
driver diffs planned unit ids against committed segment ids (metadata
only); lineage (file, row-group span, row span, content checksum) and
metrics live on each SegmentInfo.

**``partition_mode="hash"``** (for arbitrary Datasets, or when stable
segment identity under input re-layout matters): segment membership is
``sha256(doc_key) % num_segments`` — deterministic under any execution
order / parallelism and any file layout — at the cost of one all-to-all
``groupby(__seg)`` shuffle of the corpus. Key hashes are uniform by
construction so the wide step has NO skew regardless of term
distribution; hot *terms* never cross the network in either mode — they
are grouped inside each segment task by in-memory factorize/lexsort.
(The global term-partitioned statistics pipeline with explicit hot-term
salting lives in ``rayfts.ops.termstats``.)

In both modes docids are deterministic (in-segment order = doc-key sort;
global offsets = manifest order, SURVEY.md §4 "ordering") and output is
one directory per segment — never one giant file.
"""

from __future__ import annotations

import hashlib
import logging
import os
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

SEG_COL = "__seg"
KEY_COL = "__key"
SHA_COL = "content_sha256"


def _sha256_hex(values: list) -> list[str]:
    return [
        hashlib.sha256(("" if v is None else str(v)).encode("utf-8")).hexdigest()
        for v in values
    ]


def _key_hash_u64(keys: list[str]) -> np.ndarray:
    out = np.empty(len(keys), dtype=np.uint64)
    for i, k in enumerate(keys):
        out[i] = int.from_bytes(hashlib.sha256(k.encode("utf-8")).digest()[:8], "big")
    return out


def make_prep_fn(content_col: str, key_cols: list[str] | None, num_segments: int):
    """Stateless map_batches fn: adds content_sha256, __key, __seg."""

    def prep(batch: pa.Table) -> pa.Table:
        if content_col in batch.column_names:
            shas = _sha256_hex(batch[content_col].to_pylist())
        else:
            shas = [""] * batch.num_rows
        if SHA_COL not in batch.column_names:
            batch = batch.append_column(SHA_COL, pa.array(shas, type=pa.string()))
        if key_cols:
            parts = [batch[c].to_pylist() for c in key_cols]
            keys = ["\x1f".join("" if v is None else str(v) for v in row) for row in zip(*parts)]
        else:
            keys = shas
        segs = _key_hash_u64(keys) % np.uint64(num_segments)
        batch = batch.append_column(KEY_COL, pa.array(keys, type=pa.string()))
        batch = batch.append_column(SEG_COL, pa.array(segs.astype(np.int64), type=pa.int64()))
        return batch

    return prep


def segment_name(seg: int, num_segments: int) -> str:
    return f"seg-{int(seg):06d}"


# ---------------------------------------------------------------------------
# partition_mode="input": metadata-only planning + zero-shuffle unit build
# ---------------------------------------------------------------------------


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
    """map_batches fn over unit descriptors (one unit per block): read the
    unit's row groups with pruned columns, prep, build one segment."""
    prep = make_prep_fn(content_col, key_cols, 1)

    def build_unit(batch: pa.Table) -> pa.Table:
        import json as _json

        import pyarrow.parquet as pq

        # one task = one core: Arrow's intra-op pool defaults to ALL
        # machine cores, which oversubscribes the node when Ray runs one
        # task per CPU (and falsifies scaling measurements)
        if pa.cpu_count() != 1:
            pa.set_cpu_count(1)
            pa.set_io_thread_count(2)

        schema = IndexSchema.from_json(schema_json)
        out = []
        for u in batch.to_pylist():
            if u["segment_id"] in fail_ids:
                raise RuntimeError(f"injected failure for {u['segment_id']}")
            pf = pq.ParquetFile(u["path"])
            tbl = pf.read_row_groups(
                list(range(u["rg_start"], u["rg_end"])), columns=read_columns
            )
            if (u["row_lo"], u["row_hi"]) != (0, tbl.num_rows):
                tbl = tbl.slice(u["row_lo"], u["row_hi"] - u["row_lo"])
            # no doc-key sort in input mode: the unit's file row order IS
            # deterministic (fixed file + row-group span), so local docids
            # are reproducible without copying the table through a take();
            # __key is likewise redundant here (lineage pins the row span)
            tbl = prep(tbl).drop_columns([SEG_COL, KEY_COL])
            sha_np = np.frombuffer(
                b"".join(bytes.fromhex(s[:16]) for s in tbl[SHA_COL].to_pylist()),
                dtype=np.uint64,
            )
            lineage = {
                "path": u["path"],
                "row_groups": [u["rg_start"], u["rg_end"]],
                "row_span": [u["row_lo"], u["row_hi"]],
                "rows": tbl.num_rows,
                "content_xor": f"{int(np.bitwise_xor.reduce(sha_np)) if sha_np.size else 0:016x}",
            }
            info = build_segment(
                tbl, schema, u["segment_id"],
                mf.segment_path(index_dir, u["segment_id"]),
                fieldnorm_codec=fieldnorm_codec,
                order_by=None, lineage=lineage,
            )
            out.append(_json.dumps(info.to_json()))
        return pa.table({"info": pa.array(out, type=pa.string())})

    return build_unit


def make_group_builder(
    index_dir: str,
    schema_json: list,
    fieldnorm_codec: str,
    num_segments: int,
    fail_segments: frozenset[int] = frozenset(),
):
    """Per-group segment builder for ``groupby(__seg).map_groups``.

    ``fail_segments`` injects faults for the kill-and-resume test."""

    def build_group(batch: pa.Table) -> pa.Table:
        if pa.cpu_count() != 1:  # see make_unit_builder
            pa.set_cpu_count(1)
            pa.set_io_thread_count(2)
        schema = IndexSchema.from_json(schema_json)
        seg = int(batch[SEG_COL][0].as_py())
        if seg in fail_segments:
            raise RuntimeError(f"injected failure for segment {seg}")
        seg_id = segment_name(seg, num_segments)
        # deterministic local docids: sort by doc key (execution-order free)
        sha_np = np.frombuffer(
            b"".join(bytes.fromhex(s[:16]) for s in batch[SHA_COL].to_pylist()),
            dtype=np.uint64,
        )
        lineage = {
            "seg_mod": seg,
            "num_segments": num_segments,
            "rows": batch.num_rows,
            "content_xor": f"{int(np.bitwise_xor.reduce(sha_np)) if sha_np.size else 0:016x}",
        }
        info = build_segment(
            batch,
            schema,
            seg_id,
            mf.segment_path(index_dir, seg_id),
            fieldnorm_codec=fieldnorm_codec,
            order_by=[KEY_COL],
            lineage=lineage,
        )
        import json as _json

        return pa.table({"info": pa.array([_json.dumps(info.to_json())], type=pa.string())})

    return build_group


def _default_read_columns(
    schema: IndexSchema, content_col: str, key_cols: list[str] | None,
    available: list[str] | None = None,
) -> list[str]:
    """Column pruning for the read: schema fields + key/content columns."""
    want = [f.name for f in schema.fields] + [content_col] + list(key_cols or [])
    seen, out = set(), []
    for c in want:
        if c not in seen and (available is None or c in available):
            seen.add(c)
            out.append(c)
    return out


def _parquet_paths(source: str | list[str]) -> list[str]:
    """Parquet files named by a path or a list of paths (a directory
    contributes its ``*.parquet`` files), sorted."""
    paths = []
    for p in ([source] if isinstance(source, str) else source):
        if os.path.isdir(p):
            paths.extend(os.path.join(p, f) for f in os.listdir(p)
                         if f.endswith(".parquet"))
        else:
            paths.append(p)
    return sorted(paths)


def _cluster_cpus() -> int:
    try:
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8


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
    partition_mode: str | None = None,
    target_docs_per_segment: int | None = None,
    _fail_segments: frozenset[int] = frozenset(),
) -> mf.Manifest:
    """Build (or resume building) an index from parquet paths or a Dataset.

    ``partition_mode``: ``"input"`` (default for parquet paths) plans one
    segment per (file, row-group-span) unit with NO corpus shuffle;
    ``"hash"`` (default, and only option, for Dataset sources) routes rows
    by ``sha256(doc_key) % num_segments`` through a ``groupby`` shuffle.

    Does NOT call ray.init(); Ray Data auto-initializes when standalone and
    the driver/bench own the session (driver contract, __ray_entry__.py).
    """
    t0 = time.time()
    is_paths = isinstance(source, (str, list))
    if partition_mode is None:
        partition_mode = "input" if is_paths else "hash"
    if partition_mode == "input" and not is_paths:
        raise ValueError("partition_mode='input' requires parquet path(s)")

    if is_paths:
        paths = _parquet_paths(source)
    else:
        ds = source
    cpus = _cluster_cpus()

    if partition_mode == "input":
        import pyarrow.parquet as pq

        # resume must re-plan the IDENTICAL unit list even on a different
        # cluster size: the original target is pinned in the manifest
        if target_docs_per_segment is None and mf.manifest_exists(index_dir):
            target_docs_per_segment = mf.read_manifest(index_dir).build_params.get(
                "target_docs_per_segment"
            )
        total_rows = sum(pq.ParquetFile(p).metadata.num_rows for p in paths)
        if target_docs_per_segment is None:
            if num_segments:
                target_docs_per_segment = max(1, -(-total_rows // num_segments))
            else:
                target_docs_per_segment = max(1024, -(-total_rows // (2 * cpus)))
        units = plan_units(paths, target_docs_per_segment)
        if columns is None:
            avail = pq.ParquetFile(paths[0]).schema_arrow.names if paths else None
            columns = _default_read_columns(schema, content_col, key_cols, avail)
        return _build_from_units(
            units, index_dir, schema, index_name=index_name,
            content_col=content_col, key_cols=key_cols,
            fieldnorm_codec=fieldnorm_codec, resume=resume,
            read_columns=columns, t0=t0,
            fail_ordinals=_fail_segments,
            build_params={
                "partition_mode": "input",
                "target_docs_per_segment": int(target_docs_per_segment),
            },
        )

    if is_paths:
        ds = ray.data.read_parquet(paths, columns=columns)

    # num_segments is PINNED in build_params at index creation: hash-mode
    # routing is `hash(key) % num_segments`, so a resume that re-derived it
    # from the (different) cluster size would re-route every row, empty the
    # done-set, and silently drop/duplicate documents when rebuilt segment
    # ids collide with committed ones
    params = {"partition_mode": "hash",
              "num_segments": int(num_segments or max(2 * cpus, 8))}
    manifest = _open_for_build(index_dir, index_name, schema, resume, params)
    pinned = int(manifest.build_params.get("num_segments", params["num_segments"]))
    if num_segments is not None and int(num_segments) != pinned:
        raise ValueError(
            f"num_segments={num_segments} conflicts with the value "
            f"pinned at index creation ({pinned}); hash-mode segment "
            "routing cannot change across resumes"
        )
    num_segments = pinned
    built = manifest.built_ids()
    done = {seg for seg in range(num_segments)
            if segment_name(seg, num_segments) in built}
    if set(range(num_segments)) <= done:
        logger.info("build_index: all %d segments committed; nothing to do", num_segments)
        return manifest

    ds = ds.map_batches(
        make_prep_fn(content_col, key_cols, num_segments),
        batch_format="pyarrow",
    )
    if done:
        done_arr = pa.array(sorted(done), type=pa.int64())

        def drop_done(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return batch.filter(
                pc.invert(pc.is_in(batch[SEG_COL], value_set=done_arr))
            )

        ds = ds.map_batches(drop_done, batch_format="pyarrow")
        logger.info("resume: skipping %d committed segments", len(done))

    # sort-shuffle output block count == input block count, which throttles
    # map_groups parallelism when the input has few files; split up front
    # so up to num_segments group-builds run concurrently
    ds = ds.repartition(num_segments)
    infos_ds = ds.groupby(SEG_COL).map_groups(
        make_group_builder(
            index_dir, schema.to_json(), fieldnorm_codec, num_segments, _fail_segments
        ),
        batch_format="pyarrow",
    )
    return _commit_stream(infos_ds, index_dir, t0)


def _open_for_build(
    index_dir: str, index_name: str, schema: IndexSchema, resume: bool,
    build_params: dict,
) -> mf.Manifest:
    """Open-or-create the index for a build, in one commit: adopt orphan
    segment checkpoints, refuse to build over committed segments unless
    resuming, and pin ``build_params`` if none are pinned yet."""

    def open_or_create(manifest: mf.Manifest | None) -> mf.Manifest:
        if manifest is None:
            return mf.Manifest(name=index_name, schema=schema,
                               build_params=build_params)
        adopted = mf.recover_orphan_segments(index_dir, manifest)
        if adopted:
            logger.info("recovered %d orphan segment checkpoints", len(adopted))
        if manifest.segments and not resume:
            raise ValueError(f"index at {index_dir} already has segments and resume=False")
        manifest.build_params = manifest.build_params or build_params
        return manifest

    return mf.commit(index_dir, open_or_create)


def _commit_stream(infos_ds, index_dir: str, t0: float) -> mf.Manifest:
    """Stream segment infos and commit INCREMENTALLY: every completed
    partition becomes durable as soon as its info arrives, so a crashed
    driver/build loses only in-flight partitions (checkpoint semantics)."""
    import json as _json

    for batch in infos_ds.iter_batches(batch_size=64, batch_format="pyarrow"):
        infos = [
            SegmentInfo.from_json(_json.loads(s)) for s in batch["info"].to_pylist()
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


def _build_from_units(
    units: list[dict],
    index_dir: str,
    schema: IndexSchema,
    *,
    index_name: str,
    content_col: str,
    key_cols: list[str] | None,
    fieldnorm_codec: str,
    resume: bool,
    read_columns: list[str] | None,
    t0: float,
    fail_ordinals: frozenset[int] = frozenset(),
    build_params: dict,
) -> mf.Manifest:
    """Zero-shuffle build: one planned unit -> one segment -> one task."""
    manifest = _open_for_build(index_dir, index_name, schema, resume, build_params)
    done = manifest.built_ids()
    fail_ids = frozenset(
        u["segment_id"] for i, u in enumerate(units) if i in fail_ordinals
    )
    todo = [u for u in units if u["segment_id"] not in done]
    if done:
        logger.info("resume: %d/%d units already committed", len(units) - len(todo), len(units))
    if not todo:
        return manifest

    units_ds = ray.data.from_items(todo, override_num_blocks=len(todo))
    infos_ds = units_ds.map_batches(
        make_unit_builder(
            index_dir, schema.to_json(), fieldnorm_codec,
            content_col, key_cols, read_columns, fail_ids,
        ),
        batch_format="pyarrow",
    )
    return _commit_stream(infos_ds, index_dir, t0)


def append_to_index(
    source,
    index_dir: str,
    *,
    content_col: str = "content",
    key_cols: list[str] | None = None,
    num_new_segments: int | None = None,
    columns: list[str] | None = None,
) -> mf.Manifest:
    """Distributed INCREMENTAL ingest: build new segments from a Dataset
    or parquet paths and register them in an EXISTING index — the
    Ray-scale counterpart of the reference's per-batch ``add_documents``
    commits (one call = one atomic manifest version bump; serving picks
    it up via ``SearchService.refresh()``, ReloadPolicy::OnCommit).

    Segment membership is any disjoint cover of the input, so the new
    data is simply doc-partitioned into ``num_new_segments`` blocks (no
    shuffle coordination with existing segments is needed); new segment
    ids extend the lexicographic MAX existing id so they sort AFTER every
    current segment — existing docs keep their global docids. The
    fieldnorm codec is inherited from the index's existing segments
    (mixing codecs would skew BM25 norms)."""
    import json as _json
    import uuid as _uuid

    manifest = mf.read_manifest(index_dir)
    schema = manifest.schema
    ordered = manifest.ordered_segments()
    fieldnorm_codec = (ordered[0].fieldnorm_codec if ordered
                       else FieldNormCodec.TANTIVY_LIKE)

    if isinstance(source, (str, list)):
        ds = ray.data.read_parquet(_parquet_paths(source), columns=columns)
    else:
        ds = source
    n_new = int(num_new_segments or max(1, _cluster_cpus() // 2))

    existing = manifest.segment_ids()
    max_id = max(existing) if existing else "seg-000000"
    # any id extending max_id sorts strictly after every existing id;
    # the version component keeps successive appends distinct
    gen = f"{max_id}.a{manifest.version:04d}"

    prep = make_prep_fn(content_col, key_cols, 1)
    schema_json = schema.to_json()

    def build_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"info": pa.array([], type=pa.string())})
        if pa.cpu_count() != 1:
            pa.set_cpu_count(1)
            pa.set_io_thread_count(2)
        sch = IndexSchema.from_json(schema_json)
        seg_id = f"{gen}-{_uuid.uuid4().hex[:10]}"
        tbl = prep(batch).drop_columns([SEG_COL, KEY_COL])
        info = build_segment(
            tbl, sch, seg_id, mf.segment_path(index_dir, seg_id),
            fieldnorm_codec=fieldnorm_codec,
            lineage={"source": "append", "rows": tbl.num_rows},
        )
        return pa.table({"info": pa.array([_json.dumps(info.to_json())],
                                          type=pa.string())})

    infos_ds = ds.repartition(n_new).map_batches(
        build_block, batch_format="pyarrow", batch_size=None)
    infos = [SegmentInfo.from_json(_json.loads(r["info"]))
             for r in infos_ds.take_all()]
    # committed segment dirs are durable; the manifest commit is the
    # atomic commit point
    return mf.commit(index_dir, lambda m: m.add_segments(infos))
