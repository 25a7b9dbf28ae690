"""Segment merging: Ray-task mergers with deterministic output.

The reference relies on tantivy's background LogMergePolicy and sketches
a controlled-merge design in its header notes (``main.rs:7-17``: copy
to-be-merged segments aside, commit new metas atomically). Here merging
is an explicit, deterministic operation:

- groups are formed over the *ordered* segment list (by segment_id) so
  the merged index preserves global docid order — queries return
  identical (score, docid) before and after a merge;
- each group does a k-way merge of sorted term dictionaries with docid
  rebasing, one shard at a time (``_merge_shard``); positions need no
  re-encode (their delta streams are span-local) and are
  byte-concatenated;
- a small group runs one whole-field shard per indexed field in
  process; a big group fans out TERM-SHARDED: shard k merges term range
  [lo_k, hi_k) of every source (a contiguous slice of each sorted
  dictionary = a contiguous byte range of each postings/positions
  file) in its own Ray task, and a stitch step streams the shard files
  into the writer — byte-identical to the single-task merge, wall time
  divided by the shard count (see the "Term-sharded parallel merge"
  section);
- the merged segment is written by the build's own segment writer,
  ``segment.write_segment`` (a scratch directory per attempt, then one
  rename), and swapped into the manifest atomically (originals dropped
  in the same commit).

Merge determinism (SURVEY.md §5 item 3): same source segments in any
grouping order -> byte-identical merged postings, because inputs are
always processed in segment_id order.
"""

from __future__ import annotations

import contextlib
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from rayfts.index import manifest as mf
from rayfts.index.schema import IndexSchema
from rayfts.index.segment import (
    NO_TERMS, SegmentInfo, SegmentReader, lower_bound, terms_table,
    write_segment)
from rayfts.codec.postings import encode_postings_batch


def _merged_lineage(source_ids: list[str], readers) -> dict:
    """A merge output's lineage: ``merged_from``, its direct sources (what
    orphan adoption reads), and ``covers``, every build unit it holds
    (each source's own ``covers``, plus each source that is a planned
    build unit, i.e. has a ``path`` lineage), so a merge of merges still
    names the units a resumed build must skip."""
    covers = set()
    for r in readers:
        lineage = r.info.lineage
        covers.update(lineage.get("covers", ()))
        if "path" in lineage:
            covers.add(r.info.segment_id)
    if not covers:  # commits and Dataset blocks: no build to resume
        return {"merged_from": source_ids}
    return {"merged_from": source_ids, "covers": sorted(covers)}


def merged_segment_id(source_ids: list[str]) -> str:
    """Sorts into the first source's position (prefix order), keeping
    global docid order intact across the swap."""
    return f"{min(source_ids)}.m{len(source_ids)}"


def _reconcile_store_schemas(stores: list[pa.Table]) -> list[pa.Table]:
    """Text fields are scalar-or-list per doc batch (the multi-valued
    model, catalog.js:131-144), so segments ingested from different batch
    shapes can disagree on a store column's type (string vs
    list<string>), which fails the concat. Promote the SCALAR side of
    drifted columns to single-element lists — doc retrieval already
    normalizes every value to a list (Searcher._fetch_doc), so results
    are unchanged; homogeneous merge groups are untouched."""
    names = {n for t in stores for n in t.column_names}
    drifted = set()
    for name in names:
        types = {t.schema.field(name).type for t in stores
                 if name in t.column_names}
        if len(types) > 1 and any(pa.types.is_list(tp) or
                                  pa.types.is_large_list(tp) for tp in types):
            drifted.add(name)
    if not drifted:
        return stores
    out = []
    for t in stores:
        for name in drifted:
            if name not in t.column_names:
                continue
            i = t.column_names.index(name)
            col = t.column(name).combine_chunks()
            if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
                continue
            offsets = pa.array(np.arange(len(col) + 1, dtype=np.int32))
            t = t.set_column(i, name, pa.ListArray.from_arrays(offsets, col))
        out.append(t)
    return out


def _scatter_spans(dst_offs, src_starts, lens):
    """take/put index pair for copying variable-length spans: returns
    (dst_idx, src_idx) flat gather indices (vectorized, no loop)."""
    total = int(lens.sum())
    rel = np.arange(total) - np.repeat(
        np.concatenate([[0], np.cumsum(lens)[:-1]]), lens
    )
    return np.repeat(dst_offs, lens) + rel, np.repeat(src_starts, lens) + rel


@contextlib.contextmanager
def _arrow_pools_capped(n: int = 2):
    """Cap Arrow's CPU and IO pools at ``n`` threads, then RESTORE them:
    merge tasks run in reused worker processes that later serve other Ray
    Data tasks."""
    old_cpu, old_io = pa.cpu_count(), pa.io_thread_count()
    try:
        if old_cpu > n:
            pa.set_cpu_count(n)
            pa.set_io_thread_count(n)
        yield
    finally:
        pa.set_cpu_count(old_cpu)
        pa.set_io_thread_count(old_io)


def _open_sources(index_dir: str, schema: IndexSchema, source_ids: list[str]):
    """Readers of a group's sources in segment_id order, and each source's
    first global docid."""
    readers = [SegmentReader(mf.segment_path(index_dir, s), schema)
               for s in sorted(source_ids)]
    offsets = np.concatenate([[0], np.cumsum([r.num_docs for r in readers])])[:-1]
    return readers, offsets


def _merge_shard(
    readers: list[SegmentReader],
    fdef,
    offsets: np.ndarray,
    norms: np.ndarray,
    lo: str | None = None,
    hi: str | None = None,
) -> tuple[pa.Table, bytes, bytes]:
    """Merge term range ``[lo, hi)`` of ONE field across sources (``None``
    = open bound, so both ``None`` is the whole field): a part for
    :func:`write_segment`.

    This is the unit of the term-sharded parallel merge: a term range maps
    to a CONTIGUOUS ordinal slice of every source dictionary (dictionaries
    are sorted), hence a contiguous byte slice of every source postings /
    positions file — a shard reads only its slice. Per-term encodings
    depend only on that term's own postings, so concatenating shard blobs
    in term order is byte-identical to merging whole fields (tested).
    """
    dicts = [r.term_dict(fdef.name) for r in readers]
    ranges = [(0 if lo is None else lower_bound(d["terms_pa"], lo),
               len(d["terms_pa"]) if hi is None else lower_bound(d["terms_pa"], hi))
              for d in dicts]
    # k-way merge of the sorted Arrow term slices: one sort by (term,
    # source), with no Python string per term
    all_terms = pa.concat_arrays(
        [d["terms_pa"][a:b] for d, (a, b) in zip(dicts, ranges)])
    if len(all_terms) == 0:
        return NO_TERMS, b"", b""
    sizes = [b - a for (a, b) in ranges]
    src_of = np.repeat(np.arange(len(dicts)), sizes)
    ord_of = np.arange(src_of.size) - np.repeat(
        np.cumsum(sizes) - sizes, sizes)
    order = pc.sort_indices(
        pa.table({"term": all_terms, "src": src_of}),
        sort_keys=[("term", "ascending"), ("src", "ascending")]).to_numpy()
    s_terms, s_src, s_ord = all_terms.take(order), src_of[order], ord_of[order]

    # per-span (one span = one term's postings in ONE source) metadata,
    # all aligned with the merge order — everything below is vectorized;
    # a python per-term loop would dominate at 10 sources x 10^5 terms
    df_all = np.concatenate(
        [d["df"][a:b].astype(np.int64) for d, (a, b) in zip(dicts, ranges)]
    )[order]
    span_out_offs = np.concatenate([[0], np.cumsum(df_all)[:-1]])
    total_docs = int(df_all.sum())

    # merged-term grouping over spans
    tchange = pc.not_equal(s_terms[1:], s_terms[:-1]).to_numpy(zero_copy_only=False)
    tstart_span = np.flatnonzero(np.concatenate([[True], tchange]))
    merged_terms = s_terms.take(tstart_span)
    t_sizes = np.add.reduceat(df_all, tstart_span)

    # merged docid/tf/norm streams via per-source vectorized scatter
    bulk = [r.all_postings(fdef.name, ord_range=rg) for r, rg in zip(readers, ranges)]
    m_docs = np.empty(total_docs, dtype=np.int64)
    m_tfs = np.empty(total_docs, dtype=np.uint32)
    for src in range(len(readers)):
        mask = s_src == src
        if not mask.any():
            continue
        b_docs, b_tfs, b_starts, _b_ends = bulk[src]
        ords = s_ord[mask]
        dst_idx, src_idx = _scatter_spans(
            span_out_offs[mask], b_starts[ords], df_all[mask]
        )
        m_docs[dst_idx] = b_docs[src_idx].astype(np.int64) + offsets[src]
        m_tfs[dst_idx] = b_tfs[src_idx]
    if readers[0].codec.kind == "tantivy_like":
        m_norms = norms[m_docs].astype(np.uint8)
    else:
        m_norms = np.zeros(total_docs, dtype=np.uint8)

    # positions: raw byte-span concatenation (runs are self-delimiting:
    # absolute at run starts), gathered per source in merge order
    if fdef.has_positions:
        plen_all = np.concatenate(
            [d["pos_len"][a:b].astype(np.int64)
             for d, (a, b) in zip(dicts, ranges)])[order]
        poff_all = np.concatenate(
            [d["pos_off"][a:b].astype(np.int64)
             for d, (a, b) in zip(dicts, ranges)])[order]
        span_pos_out = np.concatenate([[0], np.cumsum(plen_all)[:-1]])
        total_pos_bytes = int(plen_all.sum())
        pos_stream = np.empty(total_pos_bytes, dtype=np.uint8)
        for src in range(len(readers)):
            mask = s_src == src
            if not mask.any():
                continue
            dst_idx, src_idx = _scatter_spans(
                span_pos_out[mask], poff_all[mask], plen_all[mask]
            )
            pos_stream[dst_idx] = np.asarray(readers[src]._positions_buf())[src_idx]
        pos_blob = pos_stream.tobytes()
        term_pos_lens = np.add.reduceat(plen_all, tstart_span)
        term_pos_offs = np.concatenate([[0], np.cumsum(term_pos_lens)[:-1]])
    else:
        pos_blob = b""
        term_pos_offs = np.full(tstart_span.size, -1, np.int64)
        term_pos_lens = np.zeros(tstart_span.size, np.int64)

    ends = np.cumsum(t_sizes)
    starts = ends - np.asarray(t_sizes)
    tf_cum = np.concatenate([[0], np.cumsum(m_tfs.astype(np.int64))])
    blob, t_offs, t_lens = encode_postings_batch(
        m_docs.astype(np.uint32), m_tfs, m_norms, starts, ends
    )
    return terms_table(fdef.name, merged_terms, {
        "df": t_sizes, "total_tf": tf_cum[ends] - tf_cum[starts],
        "post_off": t_offs, "post_len": t_lens,
        "pos_off": term_pos_offs, "pos_len": term_pos_lens,
    }), blob, pos_blob


def _merged_facets(schema: IndexSchema, readers: list[SegmentReader]) -> dict:
    """Facet columns of the merged segment, regenerated from the SOURCE
    sidecars (codes decoded to paths, re-factorized over the union by the
    writer), not from the merged store, which lacks stored=False facet
    fields. A source without a field's values adds nulls."""
    facet_cols: dict[str, pa.Array] = {}
    for f in schema.fields:
        if f.type != "facet":
            continue
        vals_parts, present = [], False
        for r in readers:
            v = np.full(r.num_docs, None, dtype=object)
            vals_parts.append(v)
            try:
                codes, paths = r.facet_dict(f.name)
            except KeyError:
                continue
            present = True
            m = codes >= 0
            v[m] = paths[codes[m]]
        if present:
            facet_cols[f.name] = pa.array(np.concatenate(vals_parts))
    return facet_cols


def merge_segment_group(
    index_dir: str, schema_json: list, source_ids: list[str], num_shards: int = 1
) -> SegmentInfo:
    """Merge one contiguous group of segments into one segment, written by
    :func:`write_segment`. With ``num_shards == 1`` every indexed field is
    one whole-field shard merged here, in process; with more, the group's
    term space is planned into about ``num_shards`` ranges
    (:func:`plan_merge_shards`), each merged by a parallel Ray task that
    stages its files in the attempt's scratch directory, and the stitch
    streams them into the writer one shard at a time. Both give the same
    bytes."""
    source_ids = sorted(source_ids)
    schema = IndexSchema.from_json(schema_json)
    readers, offsets = _open_sources(index_dir, schema, source_ids)
    fields = schema.indexed_fields
    norms = {f.name: np.concatenate([r.norms(f.name) for r in readers])
             for f in fields}

    def parts(scratch):
        if num_shards <= 1:
            for f in fields:
                yield _merge_shard(readers, f, offsets, norms[f.name])
            return
        futs = [
            _merge_shard_task.remote(
                index_dir, schema_json, source_ids, s["field"], s["lo"],
                s["hi"], os.path.join(scratch, f"shard-{i:05d}"))
            for i, s in enumerate(plan_merge_shards(readers, schema, num_shards))
        ]
        for prefix in ray.get(futs):
            yield _read_shard(prefix)

    info = SegmentInfo(
        segment_id=merged_segment_id(source_ids),
        num_docs=int(sum(r.num_docs for r in readers)),
        field_stats={f.name: {"total_tokens": sum(
            r.info.field_stats.get(f.name, {}).get("total_tokens", 0)
            for r in readers)} for f in fields},
        lineage=_merged_lineage(source_ids, readers),
        fieldnorm_codec=readers[0].codec.kind,
    )
    return write_segment(
        mf.segment_path(index_dir, info.segment_id), info, parts, norms,
        store=pa.concat_tables(_reconcile_store_schemas([r.store() for r in readers]),
                               promote_options="default"),
        facets=_merged_facets(schema, readers))


# Term-sharded parallel merge. One group's merge is single-threaded, so a
# plan with FEW groups (16 small segments -> 1 group) would serialize on
# one core, and one skewed giant group would straddle a whole pass. Shard
# boundaries come from byte-weighted dictionary samples, so a
# stop-word-heavy term region lands alone in its own shard instead of
# skewing one worker: the merge-side analogue of the build's salted
# shuffle (north star: "explicit skew handling for stop-word-heavy terms").


def plan_merge_shards(
    readers: list[SegmentReader], schema: IndexSchema, num_shards: int
) -> list[dict]:
    """Shard descriptors ``{"field", "lo", "hi"}`` (term-string bounds,
    ``None`` = open) covering every indexed field in (field, term) order.
    Budget splits across fields by encoded-bytes share, then inside a
    field at byte-weight quantiles of a strided dictionary sample —
    O(samples) driver state, no full-vocabulary materialization."""
    per_field = []
    for fdef in schema.indexed_fields:
        samples: list[tuple[str, int]] = []
        w_field = 0
        for r in readers:
            d = r.term_dict(fdef.name)
            nterms = len(d["terms_pa"])
            if nterms == 0:
                continue
            w = d["post_len"].astype(np.int64) + np.maximum(
                d["pos_len"].astype(np.int64), 0)
            cw = np.concatenate([[0], np.cumsum(w)])
            w_field += int(cw[-1])
            stride = max(1, nterms // 512)
            ords = np.arange(0, nterms, stride)
            terms = d["terms_pa"].take(pa.array(ords)).to_pylist()
            gap_w = cw[np.minimum(ords + stride, nterms)] - cw[ords]
            samples.extend(zip(terms, gap_w.tolist()))
        per_field.append((fdef.name, samples, w_field))
    total_w = sum(w for _, _, w in per_field) or 1

    shards: list[dict] = []
    for name, samples, w_field in per_field:
        n_f = max(1, round(num_shards * w_field / total_w)) if w_field else 1
        bounds: list[str] = []
        if samples and n_f > 1:
            samples.sort()
            cum = np.cumsum([g for _, g in samples])
            for j in range(1, n_f):
                pos = min(int(np.searchsorted(cum, j * cum[-1] / n_f)),
                          len(samples) - 1)
                bounds.append(samples[pos][0])
        lo: str | None = None
        for b in sorted(set(bounds)):
            if lo is not None and b <= lo:
                continue
            shards.append({"field": name, "lo": lo, "hi": b})
            lo = b
        shards.append({"field": name, "lo": lo, "hi": None})
    return shards


@ray.remote
def _merge_shard_task(
    index_dir: str, schema_json: list, source_ids: list[str],
    field: str, lo: str | None, hi: str | None, out_prefix: str,
) -> str:
    """Merge one term range of one field across the group's sources into
    shard files (``out_prefix`` + ``.terms.parquet``/``.post``/``.pos``)
    in the attempt's scratch directory. Reads only the shard's contiguous
    byte slice of each source."""
    with _arrow_pools_capped():
        schema = IndexSchema.from_json(schema_json)
        readers, offsets = _open_sources(index_dir, schema, source_ids)
        fdef = next(f for f in schema.indexed_fields if f.name == field)
        norms = np.concatenate([r.norms(field) for r in readers])
        terms, post, pos = _merge_shard(readers, fdef, offsets, norms, lo, hi)
        pq.write_table(terms, out_prefix + ".terms.parquet")
        for ext, blob in ((".post", post), (".pos", pos)):
            with open(out_prefix + ext, "wb") as f:
                f.write(blob)
        return out_prefix


def _read_shard(prefix: str) -> tuple[pa.Table, bytes, bytes]:
    """A shard task's part, read back with its files deleted, so only the
    segment's own files ride the rename."""
    part = [pq.read_table(prefix + ".terms.parquet")]
    os.unlink(prefix + ".terms.parquet")
    for ext in (".post", ".pos"):
        with open(prefix + ext, "rb") as f:
            part.append(f.read())
        os.unlink(prefix + ext)
    return tuple(part)


def _auto_shards(
    seg_by_id: dict, group: list[str],
    target_shard_bytes: int = 8 << 20, max_shards: int = 16,
) -> int:
    """Shard count for one merge group: ~one shard per 8 MB of encoded
    postings+positions (the decoded working set is ~5x that; measured
    per-shard overhead is well under a second, so erring toward more
    shards is cheap), capped."""
    est = sum(
        (seg_by_id[s].metrics or {}).get("postings_bytes", 0)
        + (seg_by_id[s].metrics or {}).get("positions_bytes", 0)
        for s in group if s in seg_by_id
    )
    return int(min(max_shards, max(1, est // target_shard_bytes)))


def _merge_groups(
    index_dir: str, manifest: mf.Manifest, groups: list[list[str]],
) -> list[SegmentInfo]:
    """Merge each group in its own Ray task, term-sharded when the group's
    encoded size warrants fan-out."""
    seg_by_id = {s.segment_id: s for s in manifest.segments}
    schema_json = manifest.schema.to_json()
    return [SegmentInfo.from_json(d) for d in ray.get([
        _merge_group_task.remote(index_dir, schema_json, g, _auto_shards(seg_by_id, g))
        for g in groups])]


@ray.remote
def _merge_group_task(
    index_dir: str, schema_json: list, source_ids: list[str], num_shards: int
) -> dict:
    with _arrow_pools_capped():
        return merge_segment_group(
            index_dir, schema_json, source_ids, num_shards).to_json()


def commit_merge(
    index_dir: str, groups: list[list[str]], merged_infos: list[SegmentInfo],
) -> mf.Manifest | None:
    """Swap merged segments for their sources in one ``manifest.commit``,
    then delete the source directories. Compare-and-swap: abort (return
    ``None``) unless every source is still registered and each group is
    still contiguous in docid order, and then delete the outputs the
    manifest does not register (a concurrent merge of the same group
    builds the same id).

    A source that is itself a merge output also takes along any leftover
    directories of its own ``merged_from`` sources: a driver killed
    between an earlier swap and its deletes leaves them, and only that
    source's lineage keeps orphan adoption from counting them again."""
    merged_ids = {sid for g in groups for sid in g}
    retired: set[str] = set()

    def swap(m: mf.Manifest) -> mf.Manifest | None:
        pos = {s.segment_id: i for i, s in enumerate(m.ordered_segments())}
        spans = [sorted(pos.get(sid, -1) for sid in g) for g in groups]
        if all(at[0] >= 0 and at[-1] - at[0] == len(at) - 1 for at in spans):
            retired.update(sid for s in m.segments if s.segment_id in merged_ids
                           for sid in s.lineage.get("merged_from", ()))
            m.segments = [s for s in m.segments if s.segment_id not in merged_ids]
            m.segments += merged_infos
            return m
        for info in merged_infos:
            if info.segment_id not in pos:
                shutil.rmtree(mf.segment_path(index_dir, info.segment_id),
                              ignore_errors=True)
        return None

    committed = mf.commit(index_dir, swap)
    if committed is not None:
        for sid in (merged_ids | retired) - committed.segment_ids():
            shutil.rmtree(mf.segment_path(index_dir, sid), ignore_errors=True)
    return committed


def merge_index(index_dir: str, group_size: int = 4) -> mf.Manifest:
    """Compact an index: merge ordered segments in groups of ``group_size``
    (term-sharded fan-out for big groups), then swap the manifest
    atomically."""
    manifest = mf.read_manifest(index_dir)
    ordered = manifest.ordered_segments()
    if len(ordered) <= 1:
        return manifest
    groups = [
        [s.segment_id for s in ordered[i : i + group_size]]
        for i in range(0, len(ordered), group_size)
    ]
    groups = [g for g in groups if len(g) > 1]
    merged_infos = _merge_groups(index_dir, manifest, groups)
    return commit_merge(index_dir, groups, merged_infos) or mf.read_manifest(index_dir)


# ---------------------------------------------------------------------------
# LogMergePolicy-like auto-merge
# ---------------------------------------------------------------------------


def plan_log_merge_groups(
    ordered_segments, min_merge: int = 8, max_merge: int = 16,
    min_layer_docs: int = 10_000,
) -> list[list[str]]:
    """Tiered merge planning in the spirit of tantivy's LogMergePolicy
    (the reference's intended merge control, ``main.rs:7-17`` design
    notes): segments fall into levels by log2(num_docs) — with everything
    below ``min_layer_docs`` sharing one floor level (tantivy's
    min_layer_size: slightly-unequal small segments must not fragment
    into unmergeable runs) — and a CONTIGUOUS run of >= ``min_merge``
    same-level segments becomes merge groups of up to ``max_merge``.
    Contiguity in the ordered list is required because global docids are
    manifest-ordered — merging a non-contiguous set would renumber
    documents."""
    import math

    floor_lvl = int(math.log2(max(min_layer_docs, 2)))
    runs: list[list[str]] = []
    run: list[str] = []
    run_level = None
    for s in ordered_segments:
        lvl = max(int(math.log2(max(s.num_docs, 1))), floor_lvl)
        if run_level is not None and lvl == run_level:
            run.append(s.segment_id)
        else:
            if run:
                runs.append(run)
            run, run_level = [s.segment_id], lvl
    if run:
        runs.append(run)
    groups = []
    for r in runs:
        if len(r) < min_merge:
            continue
        for i in range(0, len(r), max_merge):
            g = r[i : i + max_merge]
            if len(g) >= 2:
                groups.append(g)
    return groups


def log_merge_index(
    index_dir: str,
    min_merge: int = 8,
    max_merge: int = 16,
    max_passes: int = 8,
) -> mf.Manifest:
    """Compact an index until no level has ``min_merge`` mergeable
    segments (each pass promotes merged segments one level up, so this
    converges like a log-structured merge). Query results are invariant
    across passes (merge preserves global docid order and all stats)."""
    manifest = mf.read_manifest(index_dir)
    for _ in range(max_passes):
        groups = plan_log_merge_groups(
            manifest.ordered_segments(), min_merge, max_merge
        )
        if not groups:
            break
        # remote TASKS, not actors: a one-shot compaction reuses the warm
        # task workers already sitting around from the build, while fresh
        # actor processes would cold-start (~10 s of spawn+imports on the
        # first merge of a session); big groups fan out term-sharded
        merged_infos = _merge_groups(index_dir, manifest, groups)
        if os.environ.get("RAYFTS_CRASH_BEFORE_MANIFEST_SWAP"):
            # test hook (kill-and-resume coverage): die in the widest
            # crash window — merged segment dirs committed via tmp+rename,
            # manifest NOT yet swapped. A rerun reuses them.
            import signal

            os.kill(os.getpid(), signal.SIGKILL)
        manifest = (commit_merge(index_dir, groups, merged_infos)
                    or mf.read_manifest(index_dir))
    return manifest
