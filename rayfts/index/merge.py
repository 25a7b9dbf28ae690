"""Segment merging: Ray-task mergers with deterministic output.

The reference relies on tantivy's background LogMergePolicy and sketches
a controlled-merge design in its header notes (``main.rs:7-17``: copy
to-be-merged segments aside, commit new metas atomically). Here merging
is an explicit, deterministic operation:

- groups are formed over the *ordered* segment list (by segment_id) so
  the merged index preserves global docid order — queries return
  identical (score, docid) before and after a merge;
- each group does a k-way merge of sorted term dictionaries with docid
  rebasing; positions need no re-encode (their delta streams are
  span-local) and are byte-concatenated;
- big groups fan out TERM-SHARDED: shard k merges term range
  [lo_k, hi_k) of every source (a contiguous slice of each sorted
  dictionary = a contiguous byte range of each postings/positions
  file) in its own Ray task, and a stitch step concatenates the shard
  blobs — byte-identical to the single-task merge, wall time divided
  by the shard count (see the "Term-sharded parallel merge" section);
- the merged segment is written tmp+rename and swapped into the manifest
  atomically (originals dropped in the same commit).

Merge determinism (SURVEY.md §5 item 3): same source segments in any
grouping order -> byte-identical merged postings, because inputs are
always processed in segment_id order.
"""

from __future__ import annotations

import json
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
    META_FILE,
    NORMS_FILE,
    POSITIONS_FILE,
    POSTINGS_FILE,
    STORE_FILE,
    TERMS_FILE,
    SegmentInfo,
    SegmentReader,
    lower_bound,
    write_facet_sidecar,
)
from rayfts.codec.postings import encode_postings_batch


def _merged_lineage(source_ids: list[str], readers) -> dict:
    """A merge output's lineage: ``merged_from``, its direct sources (what
    orphan adoption reads), and ``covers``, every build unit it holds
    (each source's own ``covers``, plus each source that is a build unit:
    an input-mode ``path`` or hash-mode ``seg_mod`` lineage), so a merge
    of merges still names the units a resumed build must skip."""
    covers = set()
    for r in readers:
        lineage = r.info.lineage
        covers.update(lineage.get("covers", ()))
        if "path" in lineage or "seg_mod" in lineage:
            covers.add(r.info.segment_id)
    if not covers:  # commits and appends: no build to resume
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


def _merge_field_range(
    readers: list[SegmentReader],
    fdef,
    offsets: np.ndarray,
    norms_concat: np.ndarray,
    ranges: list[tuple[int, int]] | None = None,
) -> dict:
    """Merge ONE field's postings across sources, restricted to per-source
    term-ordinal ``ranges[src] = (lo, hi)`` (``None`` = the whole field).

    This is the unit of the term-sharded parallel merge: a term range maps
    to a CONTIGUOUS ordinal slice of every source dictionary (dictionaries
    are sorted), hence a contiguous byte slice of every source postings /
    positions file — a shard reads only its slice. Per-term encodings
    depend only on that term's own postings, so concatenating shard blobs
    in term order is byte-identical to the unsharded merge (tested).

    Returns a dict with ``terms`` (an Arrow string array) and per-term
    metadata arrays plus ``post_blob``/``pos_blob`` with blob-relative
    offsets.
    """
    dicts = [r.term_dict(fdef.name) for r in readers]
    if ranges is None:
        ranges = [(0, len(d["terms_pa"])) for d in dicts]
    # k-way merge of the sorted Arrow term slices: one sort by (term,
    # source), with no Python string per term
    all_terms = pa.concat_arrays(
        [d["terms_pa"][lo:hi] for d, (lo, hi) in zip(dicts, ranges)])
    sizes = [hi - lo for (lo, hi) in ranges]
    src_of = np.repeat(np.arange(len(dicts)), sizes)
    ord_of = np.arange(src_of.size) - np.repeat(
        np.cumsum(sizes) - sizes, sizes)
    order = pc.sort_indices(
        pa.table({"term": all_terms, "src": src_of}),
        sort_keys=[("term", "ascending"), ("src", "ascending")]).to_numpy()
    s_terms, s_src, s_ord = all_terms.take(order), src_of[order], ord_of[order]
    codec = readers[0].codec

    if len(s_terms) == 0:
        z = np.empty(0, np.int64)
        return {"terms": pa.array([], pa.string()), "df": z, "total_tf": z,
                "post_off": z, "post_len": z, "pos_off": z, "pos_len": z,
                "post_blob": b"", "pos_blob": b""}

    # per-span (one span = one term's postings in ONE source) metadata,
    # all aligned with the merge order — everything below is vectorized;
    # a python per-term loop would dominate at 10 sources x 10^5 terms
    df_all = np.concatenate(
        [d["df"][lo:hi].astype(np.int64) for d, (lo, hi) in zip(dicts, ranges)]
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
    if codec.kind == "tantivy_like":
        m_norms = norms_concat[m_docs].astype(np.uint8)
    else:
        m_norms = np.zeros(total_docs, dtype=np.uint8)

    # positions: raw byte-span concatenation (runs are self-delimiting:
    # absolute at run starts), gathered per source in merge order
    if fdef.has_positions:
        plen_all = np.concatenate(
            [d["pos_len"][lo:hi].astype(np.int64)
             for d, (lo, hi) in zip(dicts, ranges)])[order]
        poff_all = np.concatenate(
            [d["pos_off"][lo:hi].astype(np.int64)
             for d, (lo, hi) in zip(dicts, ranges)])[order]
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
    return {
        "terms": merged_terms,
        "df": np.asarray(t_sizes, dtype=np.int64),
        "total_tf": tf_cum[ends] - tf_cum[starts],
        "post_off": t_offs,
        "post_len": t_lens,
        "pos_off": term_pos_offs,
        "pos_len": term_pos_lens,
        "post_blob": blob,
        "pos_blob": pos_blob,
    }


def _write_store_and_facets(
    tmp: str, schema: IndexSchema, readers: list[SegmentReader]
) -> None:
    """Doc-order files of a merged segment (store + facet sidecars) —
    pure per-doc concatenations, independent of any term sharding."""
    stores = _reconcile_store_schemas([r.store() for r in readers])
    merged_store = pa.concat_tables(stores, promote_options="default")
    pq.write_table(merged_store, os.path.join(tmp, STORE_FILE))
    # facet sidecars regenerate from the SOURCE sidecars (codes decoded to
    # paths, re-factorized over the union) — not from the merged store,
    # which lacks stored=False facet fields
    facet_cols: dict[str, pa.Array] = {}
    for f in schema.fields:
        if f.type != "facet":
            continue
        vals_parts = []
        try:
            for r in readers:
                codes, paths = r.facet_dict(f.name)
                v = np.empty(codes.size, dtype=object)
                m = codes >= 0
                if m.any():
                    v[m] = paths[codes[m]]
                vals_parts.append(v)
        except KeyError:
            continue  # field absent in the sources
        facet_cols[f.name] = pa.array(np.concatenate(vals_parts))
    write_facet_sidecar(tmp, facet_cols)


def merge_segment_group(
    index_dir: str, schema_json: list, source_ids: list[str]
) -> SegmentInfo:
    source_ids = sorted(source_ids)
    schema = IndexSchema.from_json(schema_json)
    readers = [SegmentReader(mf.segment_path(index_dir, s), schema) for s in source_ids]
    offsets = np.concatenate([[0], np.cumsum([r.num_docs for r in readers])])[:-1]
    out_id = merged_segment_id(source_ids)
    out_dir = mf.segment_path(index_dir, out_id)
    tmp = out_dir + ".tmp"
    # a crashed SHARDED attempt may have left shard scratch files here;
    # this path writes fixed names only, so junk would ride the rename
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)

    term_tables: list[pa.Table] = []
    post_chunks: list[bytes] = []
    pos_chunks: list[bytes] = []
    post_off = 0
    pos_off = 0
    norms_out: dict[str, np.ndarray] = {}
    field_stats: dict[str, dict] = {}

    for fdef in schema.indexed_fields:
        norms_out[fdef.name] = np.concatenate([r.norms(fdef.name) for r in readers])
        res = _merge_field_range(readers, fdef, offsets, norms_out[fdef.name])
        if len(res["terms"]):
            res["post_off"] = res["post_off"] + post_off
            res["pos_off"] = np.where(res["pos_off"] >= 0, res["pos_off"] + pos_off, -1)
            term_tables.append(_terms_table(fdef.name, res))
            post_chunks.append(res["post_blob"])
            pos_chunks.append(res["pos_blob"])
            post_off += len(res["post_blob"])
            pos_off += len(res["pos_blob"])
        field_stats[fdef.name] = {
            "total_tokens": sum(
                r.info.field_stats.get(fdef.name, {}).get("total_tokens", 0)
                for r in readers
            ),
            "num_terms": len(res["terms"]),
        }

    terms_table = _concat_terms_tables(term_tables)
    pq.write_table(terms_table, os.path.join(tmp, TERMS_FILE))
    with open(os.path.join(tmp, POSTINGS_FILE), "wb") as f:
        f.write(b"".join(post_chunks))
    with open(os.path.join(tmp, POSITIONS_FILE), "wb") as f:
        f.write(b"".join(pos_chunks))
    np.savez(os.path.join(tmp, NORMS_FILE), **norms_out)
    _write_store_and_facets(tmp, schema, readers)

    info = SegmentInfo(
        segment_id=out_id,
        num_docs=int(sum(r.num_docs for r in readers)),
        field_stats=field_stats,
        lineage=_merged_lineage(source_ids, readers),
        metrics={"postings_bytes": post_off, "positions_bytes": pos_off},
        fieldnorm_codec=readers[0].codec.kind,
    )
    with open(os.path.join(tmp, META_FILE), "w") as f:
        json.dump(info.to_json(), f)
    if os.path.isdir(out_dir):
        shutil.rmtree(tmp)
    else:
        os.replace(tmp, out_dir)
    return info


# ---------------------------------------------------------------------------
# Term-sharded parallel merge
#
# A group merge is single-threaded per group, so a compaction whose plan
# yields FEW groups (e.g. 16 small segments -> 1 group) serializes on one
# core no matter how large the cluster — and one skewed giant group would
# straddle a whole pass. The sharded path splits one group's work across
# the TERM space: shard k merges term range [lo_k, hi_k) of every source
# (a contiguous ordinal slice of each sorted dictionary = a contiguous
# byte slice of each postings/positions file), and a stitch step
# concatenates the shard blobs in term order. Because a term's encoding
# depends only on its own postings, the stitched segment is byte-identical
# to the unsharded merge (test_merge_sharded golden). Boundaries come from
# weighted dictionary samples (weight = encoded postings+positions bytes),
# so a stop-word-heavy term region lands alone in its own shard instead of
# skewing one worker — the merge-side analogue of the build's salted
# shuffle (north star: "explicit skew handling for stop-word-heavy terms").
# ---------------------------------------------------------------------------


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


def _terms_table(field: str, res: dict) -> pa.Table:
    """One field's rows of a merged ``terms.parquet``."""
    return pa.table({
        "field": pa.array([field] * len(res["terms"]), type=pa.string()),
        "term": pa.array(res["terms"], type=pa.string()),
        "df": pa.array(res["df"], type=pa.uint32()),
        "total_tf": pa.array(res["total_tf"], type=pa.int64()),
        "post_off": pa.array(res["post_off"], type=pa.int64()),
        "post_len": pa.array(res["post_len"], type=pa.int64()),
        "pos_off": pa.array(res["pos_off"], type=pa.int64()),
        "pos_len": pa.array(res["pos_len"], type=pa.int64()),
    })


def _concat_terms_tables(tables: list[pa.Table]) -> pa.Table:
    """Field tables in (field, term) order as one single-chunk table, so
    the unsharded and sharded merges write the same parquet bytes."""
    if not tables:
        return _terms_table("", {k: [] for k in
            ["terms", "df", "total_tf", "post_off", "post_len",
             "pos_off", "pos_len"]})
    return pa.concat_tables(tables).combine_chunks()


@ray.remote
def _merge_shard_task(
    index_dir: str, schema_json: list, source_ids: list[str],
    field: str, lo: str | None, hi: str | None, out_prefix: str,
) -> dict:
    """Merge one term range of one field across the group's sources and
    write blob-relative shard files (``.post``/``.pos``/``.terms.parquet``)
    next to the segment-in-progress. Reads only the shard's contiguous
    byte slice of each source."""
    old_cpu, old_io = pa.cpu_count(), pa.io_thread_count()
    try:
        if old_cpu > 2:
            pa.set_cpu_count(2)
            pa.set_io_thread_count(2)
        schema = IndexSchema.from_json(schema_json)
        readers = [SegmentReader(mf.segment_path(index_dir, s), schema)
                   for s in sorted(source_ids)]
        offsets = np.concatenate(
            [[0], np.cumsum([r.num_docs for r in readers])])[:-1]
        fdef = next(f for f in schema.indexed_fields if f.name == field)
        ranges = []
        for r in readers:
            arr = r.term_dict(field)["terms_pa"]
            o_lo = 0 if lo is None else lower_bound(arr, lo)
            o_hi = len(arr) if hi is None else lower_bound(arr, hi)
            ranges.append((o_lo, o_hi))
        norms_concat = np.concatenate([r.norms(field) for r in readers])
        res = _merge_field_range(readers, fdef, offsets, norms_concat, ranges)
        with open(out_prefix + ".post", "wb") as f:
            f.write(res["post_blob"])
        with open(out_prefix + ".pos", "wb") as f:
            f.write(res["pos_blob"])
        pq.write_table(_terms_table(field, res),
                       out_prefix + ".terms.parquet")
        return {"field": field, "prefix": out_prefix,
                "nterms": len(res["terms"]),
                "post_bytes": len(res["post_blob"]),
                "pos_bytes": len(res["pos_blob"])}
    finally:
        pa.set_cpu_count(old_cpu)
        pa.set_io_thread_count(old_io)


def merge_segment_group_sharded(
    index_dir: str, schema_json: list, source_ids: list[str], num_shards: int
) -> SegmentInfo:
    """Sharded equivalent of :func:`merge_segment_group` — same output
    bytes, wall time divided across ``num_shards`` parallel Ray tasks."""
    source_ids = sorted(source_ids)
    schema = IndexSchema.from_json(schema_json)
    readers = [SegmentReader(mf.segment_path(index_dir, s), schema)
               for s in source_ids]
    out_id = merged_segment_id(source_ids)
    out_dir = mf.segment_path(index_dir, out_id)
    tmp = out_dir + ".tmp"
    # a crashed prior attempt may have left shard files for a DIFFERENT
    # plan in tmp; they must not ride the final rename into the segment
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)

    plan = plan_merge_shards(readers, schema, num_shards)
    futs = [
        _merge_shard_task.remote(
            index_dir, schema_json, source_ids, s["field"], s["lo"], s["hi"],
            os.path.join(tmp, f"shard-{i:05d}"))
        for i, s in enumerate(plan)
    ]
    metas = ray.get(futs)

    # stitch: concatenate shard blobs in (field, term) order, rebasing the
    # per-shard blob-relative offsets by the running file offsets
    term_tables = []
    post_base = 0
    pos_base = 0
    nterms_by_field: dict[str, int] = {}
    with open(os.path.join(tmp, POSTINGS_FILE), "wb") as post_f, \
         open(os.path.join(tmp, POSITIONS_FILE), "wb") as pos_f:
        for meta in metas:
            with open(meta["prefix"] + ".post", "rb") as f:
                post_f.write(f.read())
            with open(meta["prefix"] + ".pos", "rb") as f:
                pos_f.write(f.read())
            t = pq.read_table(meta["prefix"] + ".terms.parquet")
            if t.num_rows:
                po = t["post_off"].to_numpy() + post_base
                zo = t["pos_off"].to_numpy()
                zo = np.where(zo >= 0, zo + pos_base, -1)
                t = t.set_column(t.column_names.index("post_off"), "post_off",
                                 pa.array(po, type=pa.int64()))
                t = t.set_column(t.column_names.index("pos_off"), "pos_off",
                                 pa.array(zo, type=pa.int64()))
                term_tables.append(t)
            nterms_by_field[meta["field"]] = (
                nterms_by_field.get(meta["field"], 0) + meta["nterms"])
            post_base += meta["post_bytes"]
            pos_base += meta["pos_bytes"]
            for ext in (".post", ".pos", ".terms.parquet"):
                os.unlink(meta["prefix"] + ext)
    terms_table = _concat_terms_tables(term_tables)
    pq.write_table(terms_table, os.path.join(tmp, TERMS_FILE))

    norms_out = {f.name: np.concatenate([r.norms(f.name) for r in readers])
                 for f in schema.indexed_fields}
    np.savez(os.path.join(tmp, NORMS_FILE), **norms_out)
    _write_store_and_facets(tmp, schema, readers)

    field_stats = {
        f.name: {
            "total_tokens": sum(
                r.info.field_stats.get(f.name, {}).get("total_tokens", 0)
                for r in readers),
            "num_terms": nterms_by_field.get(f.name, 0),
        }
        for f in schema.indexed_fields
    }
    info = SegmentInfo(
        segment_id=out_id,
        num_docs=int(sum(r.num_docs for r in readers)),
        field_stats=field_stats,
        lineage=_merged_lineage(source_ids, readers),
        metrics={"postings_bytes": post_base, "positions_bytes": pos_base},
        fieldnorm_codec=readers[0].codec.kind,
    )
    with open(os.path.join(tmp, META_FILE), "w") as f:
        json.dump(info.to_json(), f)
    if os.path.isdir(out_dir):
        shutil.rmtree(tmp)
    else:
        os.replace(tmp, out_dir)
    return info


@ray.remote
def _merge_group_sharded_task(
    index_dir: str, schema_json: list, source_ids: list[str], num_shards: int
) -> dict:
    """Remote wrapper: plans + submits nested shard tasks + stitches, so
    the driver stays light when many groups shard at once."""
    return merge_segment_group_sharded(
        index_dir, schema_json, source_ids, num_shards).to_json()


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


def _submit_group_merges(
    index_dir: str, schema_json: list, groups: list[list[str]],
    seg_by_id: dict,
) -> list:
    """One future per merge group: single-task for small groups, the
    term-sharded path when the group's encoded size warrants fan-out."""
    futs = []
    for g in groups:
        n = _auto_shards(seg_by_id, g)
        if n <= 1:
            futs.append(_merge_group_task.remote(index_dir, schema_json, g))
        else:
            futs.append(_merge_group_sharded_task.remote(
                index_dir, schema_json, g, n))
    return futs


@ray.remote
def _merge_group_task(index_dir: str, schema_json: list, source_ids: list[str]) -> dict:
    # cap Arrow's pools for the merge, then RESTORE: this task runs in a
    # reused worker process that later serves other Ray Data tasks
    old_cpu, old_io = pa.cpu_count(), pa.io_thread_count()
    try:
        if old_cpu > 2:
            pa.set_cpu_count(2)
            pa.set_io_thread_count(2)
        return merge_segment_group(index_dir, schema_json, source_ids).to_json()
    finally:
        pa.set_cpu_count(old_cpu)
        pa.set_io_thread_count(old_io)


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
    seg_by_id = {s.segment_id: s for s in manifest.segments}
    futs = _submit_group_merges(
        index_dir, manifest.schema.to_json(), groups, seg_by_id)
    merged_infos = [SegmentInfo.from_json(d) for d in ray.get(futs)]
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
        schema_json = manifest.schema.to_json()
        # remote TASKS, not actors: a one-shot compaction reuses the warm
        # task workers already sitting around from the build, while fresh
        # actor processes would cold-start (~10 s of spawn+imports on the
        # first merge of a session); big groups fan out term-sharded
        seg_by_id = {s.segment_id: s for s in manifest.segments}
        futs = _submit_group_merges(index_dir, schema_json, groups, seg_by_id)
        merged_infos = [SegmentInfo.from_json(d) for d in ray.get(futs)]
        if os.environ.get("RAYFTS_CRASH_BEFORE_MANIFEST_SWAP"):
            # test hook (kill-and-resume coverage): die in the widest
            # crash window — merged segment dirs committed via tmp+rename,
            # manifest NOT yet swapped. A rerun reuses them.
            import signal

            os.kill(os.getpid(), signal.SIGKILL)
        manifest = (commit_merge(index_dir, groups, merged_infos)
                    or mf.read_manifest(index_dir))
    return manifest
