"""Corpus-wide duplicate-line removal (RefinedWeb / Falcon style).

Web corpora repeat boilerplate lines (nav menus, cookie banners,
signatures) across many pages; RefinedWeb (Penedo et al. 2023, public)
and Dolma remove any line whose content recurs across documents. This
op drops every line whose STRIPPED content appears in at least
``min_docs`` distinct documents, rewriting ``text`` in place.

Conventions (identical in the SQL oracle, shared with
:mod:`rayfts.ops.repetition`):

- a LINE is a ``\\n``-separated segment; matching is on the segment
  stripped of ASCII whitespace ``" \\t\\r\\f\\v"`` on both sides;
- empty-after-strip lines never qualify and are always kept (they
  carry document structure, not content);
- a dropped line is removed together with its separator (survivors are
  re-joined with ``\\n``), and matching is EXACT string content — no
  hashing, so no collision caveat in the correctness contract.

Scale shape (SURVEY.md §4): unlike term stats, line partials barely
collapse — most lines are UNIQUE, so a single-pass string fold would
exchange nearly every corpus line's text (a corpus-sized shuffle).
Duplicate detection is therefore HASH-FIRST:

- pass A emits PRE-AGGREGATED per-batch partials ``(h, ndocs)`` with
  ``h`` a 64-bit line hash — 16 bytes/row crossing the exchange, never
  the text — reduced by the same uniform hash-partitioned Arrow
  ``group_by`` used by :mod:`rayfts.ops.termstats`; hashes whose summed
  ``ndocs >= min_docs`` become CANDIDATES (a superset: collisions can
  only add);
- the candidate hashes broadcast once via ``ray.put`` in byte-budgeted
  sorted chunks, and pass B re-scans the corpus emitting ``(line, occ,
  ndocs)`` string partials ONLY for candidate-hash lines (vanishing
  fraction), then folds them EXACTLY by string — so collisions are
  filtered out and the correctness contract stays hash-free.

Each document lives wholly inside one batch, so per-batch distinct-doc
counts are summable; a boilerplate line crossing an exchange costs one
row per batch, never one per occurrence. The qualifying set contains
ONLY duplicated lines; it broadcasts once via ``ray.put`` in
byte-budgeted chunks — membership is ``pc.is_in`` per chunk — with no
fall-over needed because the chain of chunks IS the large-set path
(each chunk pins at most ``chunk_bytes`` in the object store).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_LINE_STRIP = " \t\r\f\v"


def _stripped_lines(arr: pa.Array):
    """Column of text -> (flat stripped lines, per-doc line counts)."""
    sp = pc.split_pattern(arr, pattern="\n")
    counts = pc.list_value_length(sp).to_numpy().astype(np.int64)
    flat = pc.utf8_trim(pc.list_flatten(sp), characters=_LINE_STRIP)
    return sp, flat, counts


def _batch_line_stats(batch: pa.Table, col: str):
    """Distinct stripped non-empty lines of a batch with per-batch
    (occ, ndocs) counts. Returns (dictionary, occ, ndocs) or None."""
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_null(arr.type):
        arr = arr.cast(pa.string())
    _sp, flat, counts = _stripped_lines(pc.fill_null(arr, ""))
    n = batch.num_rows
    ldoc = np.repeat(np.arange(n, dtype=np.int64), counts)
    nonempty = pc.utf8_length(flat).to_numpy().astype(np.int64) > 0
    if not nonempty.any():
        return None
    denc = flat.filter(pa.array(nonempty)).dictionary_encode()
    codes = denc.indices.to_numpy().astype(np.int64)
    docs = ldoc[nonempty]
    nu = len(denc.dictionary)
    occ = np.bincount(codes, minlength=nu).astype(np.int64)
    # distinct docs per line within the batch: unique (code, doc) pairs
    fused = codes * max(n, 1) + docs
    ndocs = np.bincount(np.unique(fused) // max(n, 1),
                        minlength=nu).astype(np.int64)
    return denc.dictionary, occ, ndocs


def _line_hashes(dictionary: pa.Array) -> np.ndarray:
    """Deterministic 64-bit hash per distinct line (pandas murmur-based
    hash_array with its fixed default key: stable across processes)."""
    return pd.util.hash_array(
        np.asarray(dictionary.to_numpy(zero_copy_only=False), dtype=object))


def line_partials_batch(batch: pa.Table, col: str = "text") -> pa.Table:
    """Per-batch partial (line, occ, ndocs) for non-empty stripped lines."""
    stats = _batch_line_stats(batch, col)
    if stats is None:
        return pa.table({
            "line": pa.array([], type=pa.string()),
            "occ": pa.array([], type=pa.int64()),
            "ndocs": pa.array([], type=pa.int64()),
        })
    dictionary, occ, ndocs = stats
    return pa.table({
        "line": dictionary,
        "occ": pa.array(occ, type=pa.int64()),
        "ndocs": pa.array(ndocs, type=pa.int64()),
    })


def _candidate_hash_refs(ds, col: str, min_docs: int, num_reducers: int,
                         chunk_bytes: int) -> list:
    """Pass A: object refs of SORTED uint64 chunks covering every line
    hash whose cross-corpus distinct-doc count reaches ``min_docs``
    (superset under collision; exactness restored in pass B)."""
    import ray

    def hash_partials(b: pa.Table) -> pa.Table:
        stats = _batch_line_stats(b, col)
        if stats is None:
            return pa.table({"h": pa.array([], type=pa.uint64()),
                             "nd": pa.array([], type=pa.int64())})
        dictionary, _occ, ndocs = stats
        return pa.table({"h": pa.array(_line_hashes(dictionary),
                                       type=pa.uint64()),
                         "nd": pa.array(ndocs, type=pa.int64())})

    def tag(b: pa.Table) -> pa.Table:
        part = (b["h"].to_numpy() % num_reducers).astype(np.int32)
        return b.append_column("part", pa.array(part, type=pa.int32()))

    def reduce_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"h": pa.array([], type=pa.uint64())})
        agg = g.select(["h", "nd"]).group_by("h").aggregate([("nd", "sum")])
        return (pa.table({"h": agg["h"]})
                .filter(pc.greater_equal(agg["nd_sum"], min_docs)))

    cand = (ds.select_columns([col])
            .map_batches(hash_partials, batch_format="pyarrow",
                         batch_size=4096)
            .map_batches(tag, batch_format="pyarrow")
            .groupby("part").map_groups(reduce_part, batch_format="pyarrow"))
    refs, buf, buf_n = [], [], 0
    for b in cand.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        buf.append(b["h"].to_numpy(zero_copy_only=False))
        buf_n += buf[-1].size
        if buf_n * 8 >= chunk_bytes:
            refs.append(ray.put(np.sort(np.concatenate(buf))))
            buf, buf_n = [], 0
    if buf:
        refs.append(ray.put(np.sort(np.concatenate(buf))))
    return refs


def _hash_member_mask(h: np.ndarray, refs: list) -> np.ndarray:
    """OR of sorted-chunk membership tests (searchsorted per chunk)."""
    import ray

    hit = np.zeros(h.size, dtype=bool)
    for r in refs:
        cand = ray.get(r)
        if cand.size == 0:
            continue
        pos = np.clip(np.searchsorted(cand, h), 0, cand.size - 1)
        hit |= cand[pos] == h
    return hit


def duplicate_lines(ds, col: str = "text", min_docs: int = 2,
                    num_reducers: int = 32, chunk_bytes: int = 64 << 20):
    """Lazy Dataset of ``(line, occ, ndocs)`` for every stripped line
    appearing in >= ``min_docs`` distinct documents. Stays distributed.

    Two passes over ``ds`` (hash candidates, then exact string fold of
    candidate lines only — see module docstring); both exchanges carry
    summary-sized rows, never the corpus's line text."""
    refs = _candidate_hash_refs(ds, col, min_docs, num_reducers,
                                chunk_bytes)

    def string_partials(b: pa.Table) -> pa.Table:
        empty = pa.table({"line": pa.array([], type=pa.string()),
                          "occ": pa.array([], type=pa.int64()),
                          "ndocs": pa.array([], type=pa.int64())})
        stats = _batch_line_stats(b, col)
        if stats is None:
            return empty
        dictionary, occ, ndocs = stats
        hit = _hash_member_mask(_line_hashes(dictionary), refs)
        if not hit.any():
            return empty
        mask = pa.array(hit)
        return pa.table({
            "line": dictionary.filter(mask),
            "occ": pa.array(occ[hit], type=pa.int64()),
            "ndocs": pa.array(ndocs[hit], type=pa.int64()),
        })

    partials = ds.select_columns([col]).map_batches(
        string_partials, batch_format="pyarrow", batch_size=4096)

    def tag(b: pa.Table) -> pa.Table:
        h = pd.util.hash_array(b["line"].to_numpy(zero_copy_only=False))
        return b.append_column(
            "part", pa.array((h % num_reducers).astype(np.int32),
                             type=pa.int32()))

    def reduce_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"line": pa.array([], type=pa.string()),
                             "occ": pa.array([], type=pa.int64()),
                             "ndocs": pa.array([], type=pa.int64())})
        agg = (g.select(["line", "occ", "ndocs"]).group_by("line")
               .aggregate([("occ", "sum"), ("ndocs", "sum")]))
        t = pa.table({"line": agg["line"], "occ": agg["occ_sum"],
                      "ndocs": agg["ndocs_sum"]})
        return t.filter(pc.greater_equal(t["ndocs"], min_docs))

    return (partials.map_batches(tag, batch_format="pyarrow")
            .groupby("part").map_groups(reduce_part, batch_format="pyarrow"))


def line_dedup(
    ds,
    col: str = "text",
    id_col: str = "doc_id",
    min_docs: int = 2,
    chunk_bytes: int = 64 << 20,
):
    """Rewrite ``col`` dropping every line duplicated across >=
    ``min_docs`` documents; appends ``n_removed_lines``. Returns a lazy
    Dataset with the input's other columns intact.

    The duplicate-line set streams off the cluster in ``chunk_bytes``
    string chunks, each broadcast once via ``ray.put``; the rewrite pass
    ORs one vectorized ``pc.is_in`` mask per chunk. Driver memory is
    O(chunk) and object-store pinning is O(total duplicate lines) —
    duplicates only, never corpus lines.
    """
    import ray

    refs = []
    buf: list = []
    buf_bytes = 0
    for b in duplicate_lines(ds, col=col, min_docs=min_docs).iter_batches(
            batch_format="pyarrow", batch_size=1 << 18):
        vals = b["line"]
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        buf.append(vals)
        buf_bytes += vals.nbytes
        if buf_bytes >= chunk_bytes:
            refs.append(ray.put(pa.concat_arrays(buf)))
            buf, buf_bytes = [], 0
    if buf:
        refs.append(ray.put(pa.concat_arrays(buf)))

    def rewrite(batch: pa.Table) -> pa.Table:
        arr = batch[col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if pa.types.is_null(arr.type):
            arr = arr.cast(pa.string())
        sp, flat, counts = _stripped_lines(pc.fill_null(arr, ""))
        raw = pc.list_flatten(sp)
        empty = pc.equal(pc.utf8_length(flat), 0).to_numpy(
            zero_copy_only=False)
        dup = np.zeros(len(flat), dtype=bool)
        for r in refs:
            dup |= pc.is_in(flat, value_set=ray.get(r)).to_numpy(
                zero_copy_only=False)
        keep = empty | ~dup
        n = batch.num_rows
        ldoc = np.repeat(np.arange(n, dtype=np.int64), counts)
        kept_counts = np.bincount(ldoc[keep], minlength=n)
        offsets = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(kept_counts, out=offsets[1:])
        kept_list = pa.ListArray.from_arrays(
            pa.array(offsets), raw.filter(pa.array(keep)))
        # the separator must match the value type: binary_join has no
        # (list<large_string>, string) kernel, and big text columns are
        # legitimately large_string at scale
        sep = pa.scalar("\n", type=kept_list.type.value_type)
        new_text = pc.binary_join(kept_list, sep)
        removed = counts - kept_counts
        out = batch.drop_columns([col]).append_column(
            col, new_text.cast(arr.type))
        return out.append_column(
            "n_removed_lines", pa.array(removed, type=pa.int64()))

    return ds.map_batches(rewrite, batch_format="pyarrow")
