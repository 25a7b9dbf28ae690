"""Immutable index segments: build (invert) and read.

A segment is the unit of parallel index construction and of checkpoint /
resume — the Ray-native analogue of a tantivy segment (6 files + an
entry in meta.json, ``/root/reference/src-nodejs/catalog.js:5-13``).
One segment directory holds:

    terms.parquet   term dictionary, sorted by (field, term):
                    field, term, df, total_tf, post_off, post_len,
                    pos_off, pos_len
    postings.bin    concatenated encoded posting lists (rayfts.codec.postings)
    positions.bin   concatenated varint position-delta streams, one span
                    per term (within a span: runs of ``tf`` deltas per doc,
                    run starts absolute, rest diffs)
    norms.npz       per indexed field: fieldnorm id per local docid
    store.parquet   stored fields; row index == local docid
    segment.json    num_docs, per-field token totals, lineage, metrics

The inversion is fully vectorized: whole-column tokenization (one
byte-class pass over the column's UTF-8 buffer, with the row path's
class table and cache for non-ASCII rows, no regex split; then
``dictionary_encode`` and lower/stem once per UNIQUE surface token —
``Analyzer.analyze_text_column``), then
``numpy.lexsort`` to group (term, doc) pairs and one batch posting
encode. No Python loop over rows or tokens in the hot path.
"""

from __future__ import annotations

import errno
import json
import os
import re
import shutil
import socket
import time
import weakref
from collections import OrderedDict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field as dc_field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from rayfts.analysis.analyzer import Analyzer
from rayfts.codec.fieldnorm import FieldNormCodec
from rayfts.codec.postings import (
    PostingList, decode_positions, decode_postings, encode_postings_batch)
from rayfts.codec.varint import decode_varints, encode_varints, varint_lengths
from rayfts.index.schema import FACET, IndexSchema, TEXT

TERMS_FILE = "terms.parquet"
POSTINGS_FILE = "postings.bin"
POSITIONS_FILE = "positions.bin"
NORMS_FILE = "norms.npz"
STORE_FILE = "store.parquet"
META_FILE = "segment.json"
FACETS_FILE = "facets.parquet"       # per-field facet path dictionary
FACET_CODES_FILE = "facet_codes.npz"  # per-field int32 code per local docid

_MISSING = object()


def lower_bound(arr: pa.Array, term: str) -> int:
    """Leftmost index with ``arr[i] >= term`` in a sorted string array.
    Bisects over UTF-8 bytes sliced straight from the array's offsets and
    data buffers (byte order is code point order), so it neither
    materializes the vocabulary nor boxes an Arrow scalar per step."""
    n = len(arr)
    _, offs_buf, data_buf = arr.buffers()
    width = 8 if pa.types.is_large_string(arr.type) else 4
    offs = memoryview(offs_buf)[arr.offset * width : (arr.offset + n + 1) * width]
    offs = offs.cast("q" if width == 8 else "i")
    data = memoryview(data_buf) if data_buf is not None else memoryview(b"")
    key = term.encode("utf-8")
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if data[offs[mid] : offs[mid + 1]].tobytes() < key:
            lo = mid + 1
        else:
            hi = mid
    return lo



@dataclass
class SegmentInfo:
    segment_id: str
    num_docs: int
    field_stats: dict  # field -> {"total_tokens": int, "num_terms": int}
    lineage: dict = dc_field(default_factory=dict)
    metrics: dict = dc_field(default_factory=dict)
    fieldnorm_codec: str = FieldNormCodec.TANTIVY_LIKE

    def to_json(self) -> dict:
        return {
            "segment_id": self.segment_id,
            "num_docs": self.num_docs,
            "field_stats": self.field_stats,
            "lineage": self.lineage,
            "metrics": self.metrics,
            "fieldnorm_codec": self.fieldnorm_codec,
        }

    @staticmethod
    def from_json(d: dict) -> "SegmentInfo":
        return SegmentInfo(
            segment_id=d["segment_id"], num_docs=d["num_docs"],
            field_stats=d["field_stats"], lineage=d.get("lineage", {}),
            metrics=d.get("metrics", {}),
            fieldnorm_codec=d.get("fieldnorm_codec", FieldNormCodec.TANTIVY_LIKE),
        )


def _encode_position_stream(pos_sorted: np.ndarray, run_starts: np.ndarray) -> np.ndarray:
    """Delta-encode a concatenated position stream: absolute at run starts
    (one run per (term, doc) posting), diffs elsewhere. Returns uint64."""
    deltas = np.empty(pos_sorted.size, dtype=np.int64)
    deltas[0] = pos_sorted[0]
    deltas[1:] = pos_sorted[1:] - pos_sorted[:-1]
    deltas[run_starts] = pos_sorted[run_starts]
    return deltas.astype(np.uint64)


def write_facet_sidecar(dir_path: str, columns: dict[str, pa.ChunkedArray | pa.Array]) -> None:
    """Write the facet dictionary sidecar for a segment directory:
    ``facet_codes.npz`` (int32 code per local docid, -1 = null) and
    ``facets.parquet`` (field, code, path) with paths sorted per field so
    codes are ordinal in path order. Shared by build and merge."""
    if not columns:
        return
    codes_out: dict[str, np.ndarray] = {}
    rows = {"field": [], "code": [], "path": []}
    for name, col in columns.items():
        vals = col.to_numpy(zero_copy_only=False) if hasattr(col, "to_numpy") else np.asarray(col)
        codes, uniques = pd.factorize(vals, sort=True)
        codes_out[name] = codes.astype(np.int32)
        rows["field"].extend([name] * len(uniques))
        rows["code"].extend(range(len(uniques)))
        rows["path"].extend(str(u) for u in uniques)
    np.savez(os.path.join(dir_path, FACET_CODES_FILE), **codes_out)
    pq.write_table(
        pa.table(
            {
                "field": pa.array(rows["field"], type=pa.string()),
                "code": pa.array(rows["code"], type=pa.int32()),
                "path": pa.array(rows["path"], type=pa.string()),
            }
        ),
        os.path.join(dir_path, FACETS_FILE),
    )


# per-worker-process analyzer cache: the Porter2 stem cache inside each
# Analyzer amortizes across ALL segments a worker builds (Zipf vocab)
_ANALYZERS: dict[str, Analyzer] = {}


def _analyzer(name: str) -> Analyzer:
    a = _ANALYZERS.get(name)
    if a is None:
        a = _ANALYZERS[name] = Analyzer(name)
    return a


def build_segment(
    table: pa.Table,
    schema: IndexSchema,
    segment_id: str,
    out_dir: str,
    fieldnorm_codec: str = FieldNormCodec.TANTIVY_LIKE,
    lineage: dict | None = None,
    analyzers: dict[str, Analyzer] | None = None,
) -> SegmentInfo:
    """Invert one partition of documents into a segment on disk.

    Each indexed field becomes one part for :func:`write_segment`, which
    writes the files in the attempt's own scratch directory and publishes
    them with one rename: the idempotent, resumable write (a crashed task
    leaves no committed segment, a retried one keeps the first copy).
    """
    t0 = time.time()
    n = table.num_rows
    analyzers = analyzers or {}
    codec = FieldNormCodec(fieldnorm_codec)

    parts: list[tuple[pa.Table, bytes, bytes]] = []
    norms_out: dict[str, np.ndarray] = {}
    field_stats: dict[str, dict] = {}
    total_token_count = 0

    for fdef in schema.indexed_fields:
        analyzer = analyzers.get(fdef.tokenizer) or _analyzer(fdef.tokenizer)
        spec = analyzer.spec
        col = table[fdef.name] if fdef.name in table.column_names else None
        fast_ok = (
            fdef.type == TEXT
            and not spec.raw
            and spec.name != "whitespace"
            and col is not None
            and (pa.types.is_string(col.type) or pa.types.is_large_string(col.type))
        )
        if fast_ok:
            # Arrow-native whole-column path (byte-class tokenizer +
            # dictionary_encode; per-UNIQUE-token filter/lower/stem) — the
            # hot path.
            codes, doc_idx, positions, uniques, counts = (
                analyzer.analyze_text_column(col))
            total_tokens = int(codes.size)
        else:
            if fdef.type == TEXT:
                texts = col.to_pylist() if col is not None else [None] * n
            else:
                # numeric fields index their canonical string form as a raw term
                texts = [None if v is None else str(v) for v in table[fdef.name].to_pylist()]

            tok_lists: list[list[str]] = []
            pos_lists: list[list[int] | None] = []
            for txt in texts:
                toks, poss = analyzer.tokens_positions_fast(txt)
                tok_lists.append(toks)
                pos_lists.append(poss)
            counts = np.fromiter((len(t) for t in tok_lists), dtype=np.int64, count=n)
            total_tokens = int(counts.sum())
            if total_tokens:
                all_toks = np.empty(total_tokens, dtype=object)
                k = 0
                for toks in tok_lists:
                    if toks:
                        all_toks[k : k + len(toks)] = toks
                        k += len(toks)
                doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
                # positions: identity (0..len-1) per doc unless the analyzer
                # reported explicit ordinals (dropped tokens)
                offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
                positions = np.arange(total_tokens, dtype=np.int64) - np.repeat(offsets, counts)
                k = 0
                for ci, pl in enumerate(pos_lists):
                    if pl is not None and len(pl):
                        positions[k : k + len(pl)] = pl
                    k += counts[ci]
                codes, uniques = pd.factorize(all_toks, sort=True)

        norms_out[fdef.name] = codec.encode(counts)
        total_token_count += total_tokens
        field_stats[fdef.name] = {"total_tokens": total_tokens}
        if total_tokens == 0:
            continue

        # one stable sort on the int32 term codes alone: the token stream is
        # emitted doc-major with ascending positions, so stability yields
        # the full (term, doc, position) order — the inversion is memory-
        # bandwidth-bound at full-node concurrency and this is its cheapest
        # possible ordering pass
        order = np.argsort(codes, kind="stable")
        s_codes = codes[order]
        s_docs = doc_idx[order]
        s_pos = positions[order]

        # posting boundaries: change of (code, doc)
        change = np.empty(total_tokens, dtype=bool)
        change[0] = True
        change[1:] = (s_codes[1:] != s_codes[:-1]) | (s_docs[1:] != s_docs[:-1])
        run_starts = np.flatnonzero(change)
        run_ends = np.append(run_starts[1:], total_tokens)
        tfs = (run_ends - run_starts).astype(np.uint32)
        p_docs = s_docs[run_starts].astype(np.uint32)
        p_codes = s_codes[run_starts]

        # term boundaries over the posting runs
        tchange = np.empty(run_starts.size, dtype=bool)
        tchange[0] = True
        tchange[1:] = p_codes[1:] != p_codes[:-1]
        t_starts = np.flatnonzero(tchange)
        t_ends = np.append(t_starts[1:], run_starts.size)

        if codec.kind == FieldNormCodec.TANTIVY_LIKE:
            p_norms = norms_out[fdef.name][p_docs]
        else:
            p_norms = np.zeros(p_docs.size, dtype=np.uint8)

        nterms = t_starts.size
        # all posting lists of this field encoded in ONE vectorized pass
        blob, t_offs, t_lens = encode_postings_batch(
            p_docs, tfs, p_norms, t_starts, t_ends
        )

        # per-posting tf sums per term (vectorized)
        tf_cum = np.concatenate([[0], np.cumsum(tfs.astype(np.int64))])
        term_total_tf = tf_cum[t_ends] - tf_cum[t_starts]

        if fdef.has_positions:
            # one whole-field position stream; per-term byte spans by cumsum
            pos_deltas = _encode_position_stream(s_pos, run_starts)
            pos_vlens = varint_lengths(pos_deltas)
            pos_blob = encode_varints(pos_deltas, pos_vlens)
            pos_byte_cum = np.concatenate([[0], np.cumsum(pos_vlens)])
            term_tok_starts = run_starts[t_starts]
            term_tok_ends = run_ends[t_ends - 1]
            pos_offs = pos_byte_cum[term_tok_starts]
            pos_lens = pos_byte_cum[term_tok_ends] - pos_byte_cum[term_tok_starts]
        else:
            pos_blob = b""
            pos_offs = np.full(nterms, -1, dtype=np.int64)
            pos_lens = np.zeros(nterms, dtype=np.int64)

        uniq_list = uniques.tolist()
        terms = terms_table(fdef.name, [uniq_list[c] for c in p_codes[t_starts]], {
            "df": t_ends - t_starts, "total_tf": term_total_tf,
            "post_off": t_offs, "post_len": t_lens,
            "pos_off": pos_offs, "pos_len": pos_lens})
        parts.append((terms, blob, pos_blob))

    info = SegmentInfo(
        segment_id=segment_id,
        num_docs=n,
        field_stats=field_stats,
        lineage=lineage or {},
        metrics={
            "build_secs": round(time.time() - t0, 4),
            "tokens": total_token_count,
        },
        fieldnorm_codec=fieldnorm_codec,
    )
    stored_cols = [f.name for f in schema.stored_fields if f.name in table.column_names]
    extra_cols = [c for c in table.column_names if c.startswith("__") or c == "content_sha256"]
    # facet fields: dictionary-encode '/a/b' paths at build time (code per
    # doc + sorted path dictionary) so the facet collector is one bincount
    # over matched docs instead of a string scan (tantivy indexes facets
    # as a term dictionary — SURVEY.md §2.3 #26)
    return write_segment(
        out_dir, info, lambda _scratch: parts, norms_out,
        store=table.select(stored_cols + [c for c in extra_cols if c not in stored_cols]),
        facets={f.name: table[f.name] for f in schema.fields
                if f.type == FACET and f.name in table.column_names},
    )


# terms.parquet columns after (field, term)
_TERM_STATS = {
    "df": pa.uint32(), "total_tf": pa.int64(), "post_off": pa.int64(),
    "post_len": pa.int64(), "pos_off": pa.int64(), "pos_len": pa.int64(),
}


def terms_table(field: str, terms, stats: dict) -> pa.Table:
    """One field's (or one term range's) rows of ``terms.parquet``, with
    ``post_off``/``pos_off`` relative to its own postings and positions
    blobs (``pos_off`` -1 for a field without positions)."""
    return pa.table({
        "field": pa.array([field] * len(terms), type=pa.string()),
        "term": pa.array(terms, type=pa.string()),
        **{k: pa.array(stats[k], type=t) for k, t in _TERM_STATS.items()},
    })


NO_TERMS = terms_table("", [], dict.fromkeys(_TERM_STATS, []))


def _rebased(terms: pa.Table, post_base: int, pos_base: int) -> pa.Table:
    """``terms`` with its blob-relative offsets moved onto file offsets."""
    pos_off = terms["pos_off"].to_numpy()
    pos_off = np.where(pos_off >= 0, pos_off + pos_base, -1)
    at = terms.column_names.index
    terms = terms.set_column(at("post_off"), "post_off", pa.array(
        terms["post_off"].to_numpy() + post_base, type=pa.int64()))
    return terms.set_column(at("pos_off"), "pos_off", pa.array(pos_off, type=pa.int64()))


# a write attempt's scratch directory: <segment dir>.<host>-<pid>-<hex8>.tmp
_SCRATCH_NAME = re.compile(r"(?P<stem>.+)-(?P<pid>\d+)-[0-9a-f]{8}\.tmp")


def scratch_pid(name: str) -> int | None:
    """The pid in the name of a segment scratch directory made on this
    host; ``None`` for another host's or any other name."""
    m = _SCRATCH_NAME.fullmatch(name)
    if m is None or not m["stem"].endswith("." + socket.gethostname()):
        return None
    return int(m["pid"])


def write_segment(
    out_dir: str,
    info: SegmentInfo,
    parts: Callable[[str], Iterable[tuple[pa.Table, bytes, bytes]]],
    norms: dict[str, np.ndarray],
    store: pa.Table,
    facets: dict[str, pa.ChunkedArray | pa.Array],
) -> SegmentInfo:
    """Write a segment and publish it at ``out_dir`` with one rename. The
    build and every merge write segments through here, and nothing else
    renames into ``segments/``.

    ``parts(scratch)`` yields ``(terms, postings, positions)`` per field
    or per term range in (field, term) order, each ``terms`` table (see
    :func:`terms_table`) with offsets relative to its own two blobs;
    ``scratch`` is the attempt's directory, where a term-sharded merge
    stages its shard files. The blobs stream into ``postings.bin`` and
    ``positions.bin``, the offsets move onto those files, and the rows
    become one single-chunk ``terms.parquet``. The writer fills in what
    the files decide: each field's ``num_terms`` in ``info.field_stats``
    and the ``postings_bytes``/``positions_bytes`` metrics.

    Every attempt writes into its own scratch directory,
    ``<out_dir>.<host>-<pid>-<hex8>.tmp``, so two attempts at one segment
    (a retried task, two merges of one group) never share a file. If
    another attempt has already committed ``out_dir``, the rename fails
    and this attempt deletes its scratch directory and keeps that copy; on
    any error it deletes it and re-raises. This is the reference's atomic
    ``meta.json`` commit discipline (``index.rs:331-336``) at segment
    granularity."""
    scratch = f"{out_dir}.{socket.gethostname()}-{os.getpid()}-{os.urandom(4).hex()}.tmp"
    os.makedirs(scratch)
    try:
        tables = []
        post_bytes = pos_bytes = 0
        with open(os.path.join(scratch, POSTINGS_FILE), "wb") as post_f, \
             open(os.path.join(scratch, POSITIONS_FILE), "wb") as pos_f:
            for terms, postings, positions in parts(scratch):
                if terms.num_rows:
                    tables.append(_rebased(terms, post_bytes, pos_bytes))
                post_f.write(postings)
                pos_f.write(positions)
                post_bytes += len(postings)
                pos_bytes += len(positions)
        terms = pa.concat_tables(tables).combine_chunks() if tables else NO_TERMS
        pq.write_table(terms, os.path.join(scratch, TERMS_FILE))
        np.savez(os.path.join(scratch, NORMS_FILE), **norms)
        pq.write_table(store, os.path.join(scratch, STORE_FILE))
        write_facet_sidecar(scratch, facets)

        counts = pa.compute.value_counts(terms["field"])
        num_terms = dict(zip(counts.field("values").to_pylist(),
                             counts.field("counts").to_pylist()))
        for name, stats in info.field_stats.items():
            stats["num_terms"] = num_terms.get(name, 0)
        info.metrics.update(postings_bytes=post_bytes, positions_bytes=pos_bytes)
        with open(os.path.join(scratch, META_FILE), "w") as f:
            json.dump(info.to_json(), f)
        try:
            os.replace(scratch, out_dir)
        except OSError as e:
            # Linux refuses to rename onto a non-empty directory: another
            # attempt committed this segment first
            if e.errno not in (errno.ENOTEMPTY, errno.EEXIST):
                raise
            shutil.rmtree(scratch)
    except BaseException:
        shutil.rmtree(scratch, ignore_errors=True)
        raise
    return info


_TERMS_CACHE: "OrderedDict[tuple, pa.Table]" = OrderedDict()
_TERMS_CACHE_MAX = 16


def _read_terms_table(path: str) -> pa.Table:
    """Per-process cache of terms tables keyed by (path, mtime_ns, size).

    Segment files are immutable once committed (tmp+rename), so the key
    only changes if a path is ever reused for different bytes. The cache
    exists for the term-sharded merge: every shard task builds its own
    SegmentReader per source, and without it a 16-shard merge of a
    16-source group parses the same 16 terms parquets 256 times in the
    same reused worker processes."""
    st = os.stat(path)
    key = (os.path.abspath(path), st.st_mtime_ns, st.st_size)
    t = _TERMS_CACHE.get(key)
    if t is not None:
        _TERMS_CACHE.move_to_end(key)
        return t
    t = pq.read_table(path)
    _TERMS_CACHE[key] = t
    while len(_TERMS_CACHE) > _TERMS_CACHE_MAX:
        _TERMS_CACHE.popitem(last=False)
    return t


def _map(path: str) -> np.ndarray:
    """The file's bytes, memory-mapped, as a plain ``ndarray``: slices and
    arithmetic on an ``np.memmap`` pay subclass bookkeeping on every
    result, and posting decodes make dozens of them per list."""
    if not os.path.getsize(path):
        return np.empty(0, dtype=np.uint8)
    return np.memmap(path, dtype=np.uint8, mode="r").view(np.ndarray)


class SegmentReader:
    """Mmap-backed reader of one segment. Term dictionary loads lazily per
    field; postings/positions are addressed through ``np.memmap`` so the
    OS page cache is the only copy (cheap enough to hold one reader per
    segment inside each query actor).

    Searchers get readers only through :func:`open_reader`, so every
    searcher of a process shares one reader per segment, with its term
    dictionaries, caches, norms and store. Merges construct their own
    readers of the sources they rewrite."""

    def __init__(self, path: str, schema: IndexSchema):
        self.path = path
        self.schema = schema
        with open(os.path.join(path, META_FILE)) as f:
            self.info = SegmentInfo.from_json(json.load(f))
        self.codec = FieldNormCodec(self.info.fieldnorm_codec)
        self._terms_by_field: dict[str, dict] = {}
        self._postings_mm: np.ndarray | None = None
        self._positions_mm: np.ndarray | None = None
        self._norms: dict[str, np.ndarray] | None = None
        self._store: pa.Table | None = None
        self._terms_table: pa.Table | None = None
        self._facets: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._decoded_norms: dict[str, np.ndarray] = {}
        # serving caches: decoded hot posting lists with the positions of
        # those a phrase used (LRU by bytes — repeated terms across a query
        # stream decode once per segment) and term->ordinal lookups (None
        # misses are cached too)
        self._postings_cache: "OrderedDict[tuple[str, int], PostingList]" = OrderedDict()
        self._postings_cached_bytes = 0
        self.postings_cache_max_bytes = 64 << 20
        self._ordinal_cache: dict[tuple[str, str], int | None] = {}

    # -- lazy loads ----------------------------------------------------
    def _terms(self, field: str) -> dict:
        cached = self._terms_by_field.get(field)
        if cached is not None:
            return cached
        if self._terms_table is None:
            self._terms_table = _read_terms_table(
                os.path.join(self.path, TERMS_FILE))
        t = self._terms_table
        mask = pa.compute.equal(t["field"], field)
        sub = t.filter(mask)
        entry = {
            "terms_pa": sub["term"].combine_chunks(),
            "df": sub["df"].to_numpy(),
            "total_tf": sub["total_tf"].to_numpy(),
            "post_off": sub["post_off"].to_numpy(),
            "post_len": sub["post_len"].to_numpy(),
            "pos_off": sub["pos_off"].to_numpy(),
            "pos_len": sub["pos_len"].to_numpy(),
        }
        self._terms_by_field[field] = entry
        return entry

    def _postings_buf(self) -> np.ndarray:
        if self._postings_mm is None:
            self._postings_mm = _map(os.path.join(self.path, POSTINGS_FILE))
        return self._postings_mm

    def _positions_buf(self) -> np.ndarray:
        if self._positions_mm is None:
            self._positions_mm = _map(os.path.join(self.path, POSITIONS_FILE))
        return self._positions_mm

    # -- public API ----------------------------------------------------
    @property
    def num_docs(self) -> int:
        return self.info.num_docs

    def term_ordinal(self, field: str, term: str) -> int | None:
        key = (field, term)
        cached = self._ordinal_cache.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
        arr = self._terms(field)["terms_pa"]
        i = lower_bound(arr, term)
        out = i if i < len(arr) and arr[i].as_py() == term else None
        if len(self._ordinal_cache) < 1_000_000:
            self._ordinal_cache[key] = out
        return out

    def doc_freq(self, field: str, term: str) -> int:
        i = self.term_ordinal(field, term)
        return int(self._terms(field)["df"][i]) if i is not None else 0

    def postings(self, field: str, term: str) -> PostingList | None:
        i = self.term_ordinal(field, term)
        if i is None:
            return None
        return self.postings_by_ordinal(field, i)

    def postings_by_ordinal(self, field: str, ordinal: int) -> PostingList:
        key = (field, ordinal)
        cache = self._postings_cache
        pl = cache.get(key)
        if pl is not None:
            cache.move_to_end(key)
            return pl
        e = self._terms(field)
        off, ln = int(e["post_off"][ordinal]), int(e["post_len"][ordinal])
        pl = decode_postings(self._postings_buf()[off : off + ln])
        cache[key] = pl
        self._postings_cached_bytes += pl.nbytes
        self._evict()
        return pl

    def _evict(self) -> None:
        """Drop least recently used lists, with their positions, until the
        posting cache fits its byte budget."""
        cache = self._postings_cache
        while self._postings_cached_bytes > self.postings_cache_max_bytes and cache:
            _, old = cache.popitem(last=False)
            self._postings_cached_bytes -= old.nbytes
            old.positions = None

    def all_postings(
        self, field: str, ord_range: tuple[int, int] | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Bulk-decode EVERY posting list of a field in three vectorized
        passes (gather payload bytes, one varint decode per stream, cumsum
        with per-term rebase). Returns ``(docids, tfs, starts, ends)``
        where term ordinal i's postings are ``docids[starts[i]:ends[i]]``.
        This is the merge path's workhorse — per-term decode calls would
        dominate a 10-source merge of a 10^5-term vocabulary.

        ``ord_range=(lo, hi)`` restricts the decode to that term-ordinal
        slice (the sharded merge path: one shard touches only its
        contiguous byte range of the postings file); the returned
        starts/ends are then relative to ordinal ``lo``."""
        from rayfts.codec.postings import HEADER_BYTES, SKIP_BYTES, BLOCK_SIZE

        e = self._terms(field)
        sl = slice(*ord_range) if ord_range is not None else slice(None)
        offs = e["post_off"][sl].astype(np.int64)
        lens = e["post_len"][sl].astype(np.int64)
        dfs = e["df"][sl].astype(np.int64)
        nterms = offs.size
        buf = self._postings_buf()
        if nterms == 0:
            z = np.empty(0, np.int64)
            return np.empty(0, np.uint32), np.empty(0, np.uint32), z, z
        nblocks = (dfs + BLOCK_SIZE - 1) // BLOCK_SIZE
        meta = HEADER_BYTES + nblocks * SKIP_BYTES

        # per-term payload spans: docid stream then tf stream, back to back
        hdr_bytes = np.asarray(buf)[offs[:, None] + np.arange(HEADER_BYTES)]
        hdr = hdr_bytes.reshape(-1).view("<u4").reshape(nterms, 3)
        d_lens = hdr[:, 1].astype(np.int64)
        f_lens = hdr[:, 2].astype(np.int64)
        d_starts_in_blob = offs + meta
        f_starts_in_blob = d_starts_in_blob + d_lens

        def gather(starts_b, lens_b):
            total = int(lens_b.sum())
            out_offs = np.concatenate([[0], np.cumsum(lens_b)[:-1]])
            take = np.repeat(starts_b, lens_b) + (
                np.arange(total) - np.repeat(out_offs, lens_b)
            )
            return np.asarray(buf)[take]

        ends = np.cumsum(dfs)
        starts = ends - dfs
        total_docs = int(ends[-1])
        d_deltas = decode_varints(gather(d_starts_in_blob, d_lens), count=total_docs)
        tfm1 = decode_varints(gather(f_starts_in_blob, f_lens), count=total_docs)
        c = np.cumsum(d_deltas.astype(np.int64))
        base = c[starts] - d_deltas[starts].astype(np.int64)
        docids = (c - np.repeat(base, dfs)).astype(np.uint32)
        return docids, (tfm1 + 1).astype(np.uint32), starts, ends

    def term_positions(self, field: str, ordinal: int) -> tuple[PostingList, np.ndarray]:
        """A term's posting list and its uint32 absolute positions
        (``PostingList.positions``). Positions decode once per cached
        list: they stay on it, count against the posting cache's byte
        budget and leave with it."""
        pl = self.postings_by_ordinal(field, ordinal)
        if pl.positions is not None:
            return pl, pl.positions
        e = self._terms(field)
        off, ln = int(e["pos_off"][ordinal]), int(e["pos_len"][ordinal])
        if off < 0:
            raise ValueError(f"field {field!r} has no positions (record != 'position')")
        positions = decode_positions(self._positions_buf()[off : off + ln], pl.tfs)
        if self._postings_cache.get((field, ordinal)) is pl:
            pl.positions = positions
            self._postings_cached_bytes += positions.nbytes
            self._evict()
        return pl, positions

    def term_dict(self, field: str) -> dict:
        """Expose the term dictionary arrays of a field (for range scans,
        the searcher's fuzzy / regex dictionary and merging)."""
        return self._terms(field)

    def norms(self, field: str) -> np.ndarray:
        if self._norms is None:
            with np.load(os.path.join(self.path, NORMS_FILE)) as z:
                self._norms = {k: z[k] for k in z.files}
        return self._norms[field]

    def decoded_norms(self, field: str) -> np.ndarray:
        """Fieldnorm ids decoded to document lengths, cached — the table
        gather is O(num_docs) and sits on every query's scoring path."""
        cached = self._decoded_norms.get(field)
        if cached is None:
            cached = self._decoded_norms[field] = self.codec.decode(self.norms(field))
        return cached

    def store(self) -> pa.Table:
        if self._store is None:
            self._store = pq.read_table(os.path.join(self.path, STORE_FILE))
        return self._store

    def fast_column(self, name: str) -> np.ndarray:
        return self.store()[name].to_numpy(zero_copy_only=False)

    def facet_dict(self, field: str) -> tuple[np.ndarray, np.ndarray]:
        """Facet dictionary of a field from the segment's sidecar:
        ``(codes, paths)`` where ``codes`` is an int32 code per local docid
        (-1 = null) and ``paths`` the path per code. ``KeyError`` if the
        segment holds no value of the field (its column was missing from
        the documents the segment was built from)."""
        cached = self._facets.get(field)
        if cached is not None:
            return cached
        codes_path = os.path.join(self.path, FACET_CODES_FILE)
        if not os.path.exists(codes_path):
            raise KeyError(field)
        with np.load(codes_path) as z:
            codes = z[field]
        t = pq.read_table(os.path.join(self.path, FACETS_FILE))
        sub = t.filter(pa.compute.equal(t["field"], field))
        paths = np.asarray(sub["path"].to_pylist(), dtype=object)
        self._facets[field] = (codes, paths)
        return codes, paths


# held weakly: a reader leaves once no searcher holds it, so merged-away
# and deleted segments leave no entry
_LIVE_READERS: "weakref.WeakValueDictionary[tuple, SegmentReader]" = (
    weakref.WeakValueDictionary())


def open_reader(path: str, schema: IndexSchema) -> SegmentReader:
    """The process's live reader of the segment at ``path``, opened if no
    searcher holds one. Segments are immutable once committed; the key
    carries ``segment.json``'s inode, mtime and size, so a directory
    rewritten at the same path (an index deleted and rebuilt) opens a
    new reader."""
    st = os.stat(os.path.join(path, META_FILE))
    key = (os.path.abspath(path), st.st_ino, st.st_mtime_ns, st.st_size)
    reader = _LIVE_READERS.get(key)
    if reader is None:
        reader = _LIVE_READERS[key] = SegmentReader(path, schema)
    return reader
