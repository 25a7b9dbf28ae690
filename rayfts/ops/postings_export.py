"""Term-partitioned global posting lists — the north star's
"groupby-term shuffle into sorted posting lists" expressed as a
standalone Ray Data pipeline (the segment index itself partitions by
document, which needs no shuffle at all; THIS pipeline is the
term-partitioned layout: one global, docid-sorted, delta+varint-encoded
posting list per term, bucketed across files for parallel consumption).

Shape (skew-safe at stop-word scale):

    read -> map_batches(tokenize -> per-batch posting FRAGMENTS)
         -> map_batches(tag bucket = hash(term) % num_buckets [+ salt])
         -> groupby(bucket).map_groups(assemble: vectorized per-bucket
            (term, docid) sort, delta+varint encode, one parquet per bucket)

Every row crossing the wide edge is a pre-aggregated fragment
(one row per (batch, term): docid list + tf list), never a raw token —
a stop word contributes #batches rows, not #occurrences. ``salt_buckets``
additionally splits a term's fragments across reducers; the per-term
spans are then contiguous within a bucket file and mergeable by
concatenation because fragments carry their minimum docid for ordering.

Output: ``out_dir/bucket=NNNN.parquet`` with columns
``term, df, cf, docids_blob (varint deltas), tfs_blob (varint tf-1)``.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from rayfts.analysis.analyzer import Analyzer
from rayfts.codec.varint import decode_varints, encode_varints, varint_lengths


class TokenizeFragments:
    """Batch -> per-(batch, term) posting fragments.

    Run as a STATELESS task-pool stage via ``_stagecache.call_cached`` (one
    cached instance per worker process), not an actor pool: the stage is
    short (tens of batches), and an autoscaling actor pool spends most of
    the stage ramping up while a fixed pool of ``num_cpus`` actors
    starves the upstream read tasks — measured 13.5 s vs 22.1 s wall at
    8 CPUs on the 120 k-doc bench corpus (interleaved best-of-3)."""

    def __init__(self, col: str = "text", id_col: str = "doc_id",
                 analyzer: str = "en_stem"):
        self.col = col
        self.id_col = id_col
        self.analyzer = Analyzer(analyzer)

    def __call__(self, batch: pa.Table) -> pa.Table:
        codes, doc_idx, _pos, uniques, _counts = (
            self.analyzer.analyze_text_column(batch[self.col])
        )
        empty = pa.table({
            "term": pa.array([], type=pa.string()),
            "min_docid": pa.array([], type=pa.int64()),
            "docids": pa.array([], type=pa.list_(pa.int64())),
            "tfs": pa.array([], type=pa.list_(pa.int64())),
        })
        if codes.size == 0:
            return empty
        ids = batch[self.id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        # group (code, doc) pairs: stable sort by code keeps docs ascending
        order = np.argsort(codes, kind="stable")
        s_codes, s_docs = codes[order], doc_idx[order]
        change = np.concatenate(
            [[True], (s_codes[1:] != s_codes[:-1]) | (s_docs[1:] != s_docs[:-1])]
        )
        run_starts = np.flatnonzero(change)
        run_ends = np.append(run_starts[1:], s_codes.size)
        tfs = (run_ends - run_starts).astype(np.int64)
        p_codes = s_codes[run_starts]
        p_docids = ids[s_docs[run_starts]]
        tchange = np.concatenate([[True], p_codes[1:] != p_codes[:-1]])
        t_starts = np.flatnonzero(tchange)
        # list columns straight from (values, offsets) — no per-term
        # Python slicing/tolist (was ~20% of the map stage)
        if p_codes.size >= (1 << 31):  # int32 Arrow list offsets
            raise ValueError(
                "batch holds >= 2^31 posting runs; reduce batch_size")
        offs = pa.array(np.append(t_starts, p_codes.size).astype(np.int32))
        docids_arr = pa.ListArray.from_arrays(
            offs, pa.array(p_docids, type=pa.int64()))
        tfs_arr = pa.ListArray.from_arrays(offs, pa.array(tfs, type=pa.int64()))
        return pa.table({
            "term": pa.array(np.asarray(uniques, dtype=object)[p_codes[t_starts]],
                             type=pa.string()),
            "min_docid": pa.array(p_docids[t_starts], type=pa.int64()),
            "docids": docids_arr,
            "tfs": tfs_arr,
        })


def _blob_column(stream: bytes, byte_offsets: np.ndarray) -> pa.Array:
    """Zero-copy binary column over one contiguous encoded stream:
    value i = ``stream[byte_offsets[i] : byte_offsets[i+1]]``."""
    if byte_offsets[-1] >= (1 << 31):
        raise ValueError(
            "bucket posting stream exceeds 2 GiB (int32 Arrow binary "
            "offsets); increase num_buckets so each bucket holds less data"
        )
    return pa.Array.from_buffers(
        pa.binary(), byte_offsets.size - 1,
        [None, pa.py_buffer(byte_offsets.astype(np.int32)), pa.py_buffer(stream)],
    )


def _assemble_bucket(group: pa.Table, out_dir: str) -> pa.Table:
    """One bucket: merge each term's fragments into one docid-sorted,
    delta+varint-encoded posting list; write ``bucket=NNNN.parquet``.

    Fully vectorized (no per-term Python): flatten all fragments to a
    (term-rank, docid, tf) triple stream via Arrow list offsets, ONE
    lexsort, run-boundary detection, then two whole-stream varint encodes
    with per-term byte offsets — the same offsets-based batch-encoding
    shape as ``codec.postings.encode_postings_batch`` / ``merge.py``. At
    100x vocabulary this reducer is numpy-bound, not Python-call-bound."""
    if group.num_rows == 0:
        return pa.table({"bucket": pa.array([], type=pa.int64()),
                         "terms": pa.array([], type=pa.int64())})
    bucket = int(group["part"][0].as_py())
    docids_col = group["docids"].combine_chunks()
    flat_docs = docids_col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    flat_tfs = (group["tfs"].combine_chunks().flatten()
                .to_numpy(zero_copy_only=False).astype(np.int64))
    row_lens = np.diff(docids_col.offsets.to_numpy(zero_copy_only=False))
    # rank terms in sorted order once (unique-term-sized, not posting-sized)
    denc = group["term"].combine_chunks().dictionary_encode()
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    dict_terms = np.asarray(denc.dictionary.to_pylist(), dtype=object)
    sorted_idx = np.argsort(dict_terms)
    rank_of = np.empty(dict_terms.size, dtype=np.int64)
    rank_of[sorted_idx] = np.arange(dict_terms.size)
    ranks_flat = np.repeat(rank_of[codes], row_lens)

    # sort by (term rank, docid). When rank*(max_doc+1) fits in int64 the
    # two keys compose into ONE int64 key and numpy's introsort beats
    # lexsort's two mergesort passes ~5x; otherwise fall back to lexsort.
    doc_span = int(flat_docs.max()) + 1 if flat_docs.size else 1
    if dict_terms.size * doc_span < (1 << 62) and flat_docs.min() >= 0:
        key = ranks_flat * np.int64(doc_span) + flat_docs
        order = np.argsort(key)
        p_key = key[order]
        p_tfs = flat_tfs[order]
        p_ranks = ranks_flat[order]  # gather beats int64 floor-division
        p_docs = p_key - p_ranks * np.int64(doc_span)
    else:
        order = np.lexsort((flat_docs, ranks_flat))
        p_docs, p_tfs, p_ranks = flat_docs[order], flat_tfs[order], ranks_flat[order]
    t_starts = np.flatnonzero(np.concatenate([[True], p_ranks[1:] != p_ranks[:-1]]))
    t_ends = np.append(t_starts[1:], p_ranks.size)

    deltas = np.empty(p_docs.size, dtype=np.int64)
    deltas[0] = p_docs[0]
    deltas[1:] = np.diff(p_docs)
    deltas[t_starts] = p_docs[t_starts]  # absolute at term starts
    deltas = deltas.astype(np.uint64)
    tfm1 = (p_tfs - 1).astype(np.uint64)

    dl = varint_lengths(deltas)
    fl = varint_lengths(tfm1)
    dstream = encode_varints(deltas, dl)
    fstream = encode_varints(tfm1, fl)
    dcum = np.concatenate([[0], np.cumsum(dl)])
    fcum = np.concatenate([[0], np.cumsum(fl)])
    tf_cum = np.concatenate([[0], np.cumsum(p_tfs)])

    out = pa.table({
        "term": pa.array(dict_terms[sorted_idx].tolist(), type=pa.string()),
        "df": pa.array(t_ends - t_starts, type=pa.int64()),
        "cf": pa.array(tf_cum[t_ends] - tf_cum[t_starts], type=pa.int64()),
        "docids_blob": _blob_column(dstream, np.append(dcum[t_starts], dcum[-1])),
        "tfs_blob": _blob_column(fstream, np.append(fcum[t_starts], fcum[-1])),
    })
    import pyarrow.parquet as pq

    tmp = os.path.join(out_dir, f".bucket={bucket:04d}.tmp")
    dst = os.path.join(out_dir, f"bucket={bucket:04d}.parquet")
    pq.write_table(out, tmp)
    os.replace(tmp, dst)
    return pa.table({
        "bucket": pa.array([bucket], type=pa.int64()),
        "terms": pa.array([out.num_rows], type=pa.int64()),
    })


def build_term_postings(
    ds,
    out_dir: str,
    col: str = "text",
    id_col: str = "doc_id",
    analyzer: str = "en_stem",
    num_buckets: int = 32,
    concurrency=None,
    resume: bool = False,
):
    """Run the term-shuffle pipeline; returns the bucket summary table.

    ``resume=True``: bucket files are tmp+rename-atomic, so an existing
    ``bucket=NNNN.parquet`` is a complete checkpoint — its fragments are
    dropped BEFORE the shuffle (a failed 10-hour run redoes only the
    missing buckets, and the skipped buckets' rows never cross the wide
    edge). The recorded ``_meta.json`` must match the requested params.
    """
    os.makedirs(out_dir, exist_ok=True)
    import glob as _glob
    import json

    meta = {"num_buckets": num_buckets, "col": col,
            "id_col": id_col, "analyzer": analyzer}
    meta_path = os.path.join(out_dir, "_meta.json")
    done: set[int] = set()
    if resume and os.path.exists(meta_path):
        with open(meta_path) as f:
            prev = json.load(f)
        if prev != meta:
            raise ValueError(
                f"resume=True but {meta_path} params {prev} differ from "
                f"requested {meta}; use a fresh out_dir or matching params"
            )
        done = {
            int(os.path.basename(p)[len("bucket="):-len(".parquet")])
            for p in _glob.glob(os.path.join(out_dir, "bucket=*.parquet"))
        }
    tmp_meta = meta_path + ".tmp"
    with open(tmp_meta, "w") as f:
        json.dump(meta, f)
    os.replace(tmp_meta, meta_path)
    from rayfts.ops._stagecache import call_cached

    frag_kwargs = dict(
        fn_kwargs={"_cls": TokenizeFragments, "col": col,
                   "id_col": id_col, "analyzer": analyzer},
        batch_format="pyarrow",
        batch_size=8192,
    )
    if concurrency is not None:
        frag_kwargs["concurrency"] = concurrency
    frags = ds.map_batches(call_cached, **frag_kwargs)

    def tag(b: pa.Table) -> pa.Table:
        import pandas as pd  # only the tag stage hashes via pandas;
        # reducer workers (_assemble_bucket) stay Arrow/numpy-only

        h = pd.util.hash_array(b["term"].to_numpy(zero_copy_only=False))
        part = (h % num_buckets).astype(np.int32)
        b = b.append_column("part", pa.array(part))
        if done:
            # resume: completed buckets' fragments never cross the shuffle
            b = b.filter(pa.array(~np.isin(part, np.fromiter(done, np.int32))))
        return b

    summary = (
        frags.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(lambda g: _assemble_bucket(g, out_dir), batch_format="pyarrow")
    )
    rows = summary.take_all()
    rows.extend({"bucket": b, "terms": -1} for b in sorted(done))  # -1 = resumed
    return pa.Table.from_pylist(sorted(rows, key=lambda r: r["bucket"]))


def read_posting(out_dir: str, term: str) -> tuple[np.ndarray, np.ndarray]:
    """Point lookup of one term's global posting list (docids, tfs)."""
    import json

    import pandas as pd
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    with open(os.path.join(out_dir, "_meta.json")) as f:
        nb = json.load(f)["num_buckets"]
    h = int(pd.util.hash_array(np.asarray([term], dtype=object))[0])
    fname = os.path.join(out_dir, f"bucket={h % nb:04d}.parquet")
    if not os.path.exists(fname):
        return np.empty(0, np.int64), np.empty(0, np.int64)
    t = pq.read_table(fname)
    sub = t.filter(pc.equal(t["term"], term))
    if sub.num_rows == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    deltas = decode_varints(sub["docids_blob"][0].as_py())
    docids = np.cumsum(deltas.astype(np.int64))
    tfs = decode_varints(sub["tfs_blob"][0].as_py()).astype(np.int64) + 1
    return docids, tfs
