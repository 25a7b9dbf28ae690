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
    store.parquet   one row per local docid: the stored fields, and
                    hidden columns ``__norm_<field>`` (each indexed
                    field's fieldnorm id: uint8, uint32 for the ``exact``
                    codec) and ``__facet_<field>`` (each facet field's
                    path, dictionary-encoded)
    segment.json    num_docs, per-field token totals, lineage, metrics

The inversion is fully vectorized: whole-column tokenization (one
byte-class pass over the column's UTF-8 buffer, with the row path's
class table and cache for non-ASCII rows, no regex split; then
``dictionary_encode`` and lower/stem once per UNIQUE surface token —
``Analyzer.analyze_text_column``), then
``numpy.lexsort`` to group (term, doc) pairs and one batch posting
encode. No Python loop over rows or tokens in the hot path.

Reading: :func:`open_reader` gives every searcher and merge of a process
one shared reader per live segment, and the parts cache keeps the parsed
term table and norms of the 16 segments the process used or wrote last
(:func:`write_segment` fills it), so a freshly committed segment opens
warm.
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
STORE_FILE = "store.parquet"
META_FILE = "segment.json"
# reserved prefixes of the store's hidden columns; a name is prefix + field
NORM_PREFIX = "__norm_"
FACET_PREFIX = "__facet_"

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


def _factorize_paths(col: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """A facet column as an int32 code per local docid (-1 = null) and the
    sorted paths the codes index, so codes are ordinal in path order."""
    codes, paths = pd.factorize(
        col.cast(pa.string()).to_numpy(zero_copy_only=False), sort=True)
    return codes.astype(np.int32), paths


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
    reserved = [c for c in table.column_names if c.startswith((NORM_PREFIX, FACET_PREFIX))]
    if reserved:
        raise ValueError(f"input columns {reserved} take a reserved store column prefix "
                         f"({NORM_PREFIX!r} or {FACET_PREFIX!r})")
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
    docs = table.select(stored_cols + [c for c in extra_cols if c not in stored_cols])
    for name, ids in norms_out.items():
        docs = docs.append_column(NORM_PREFIX + name, pa.array(ids))
    # facet fields: dictionary-encode '/a/b' paths at build time (code per
    # doc + sorted path dictionary) so the facet collector is one bincount
    # over matched docs instead of a string scan (tantivy indexes facets
    # as a term dictionary — SURVEY.md §2.3 #26)
    for f in schema.fields:
        if f.type == FACET and f.name in table.column_names:
            codes, paths = _factorize_paths(table[f.name])
            docs = docs.append_column(FACET_PREFIX + f.name, pa.DictionaryArray.from_arrays(
                pa.array(codes, mask=codes < 0), pa.array(paths, pa.string())))
    return write_segment(out_dir, info, lambda _scratch: parts, docs)


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


# <stem>.<host>-<pid>-<hex8>: a Dataset block, or with ".tmp" a scratch dir
_OWNED_NAME = re.compile(r"(?P<stem>.+)-(?P<pid>\d+)-[0-9a-f]{8}(\.tmp)?")


def owner_pid(name: str) -> int | None:
    """The owner's pid in a scratch directory's name or a Dataset block's
    id made on this host; ``None`` for another host's or any other name."""
    m = _OWNED_NAME.fullmatch(name)
    if m is None or not m["stem"].endswith("." + socket.gethostname()):
        return None
    return int(m["pid"])


def write_segment(
    out_dir: str,
    info: SegmentInfo,
    parts: Callable[[str], Iterable[tuple[pa.Table, bytes, bytes]]],
    docs: pa.Table,
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
    become one single-chunk ``terms.parquet``. ``docs`` is the segment's
    one per-document table, ``store.parquet``: row i is local docid i,
    with the stored fields and the hidden ``__norm_``/``__facet_``
    columns. The writer fills in what the files decide: each field's
    ``num_terms`` in ``info.field_stats`` and the
    ``postings_bytes``/``positions_bytes`` metrics.

    Every attempt writes into its own scratch directory,
    ``<out_dir>.<host>-<pid>-<hex8>.tmp``, so two attempts at one segment
    (a retried task, two merges of one group) never share a file. If
    another attempt has already committed ``out_dir``, the rename fails
    and this attempt deletes its scratch directory and keeps that copy; on
    any error it deletes it and re-raises. This is the reference's atomic
    ``meta.json`` commit discipline (``index.rs:331-336``) at segment
    granularity. The attempt whose rename wins puts its term table and
    the norms of ``docs`` in the process's parts cache (write-through), so
    a reader of the new segment in this process parses neither."""
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
        pq.write_table(docs, os.path.join(scratch, STORE_FILE))

        counts = pa.compute.value_counts(terms["field"])
        num_terms = dict(zip(counts.field("values").to_pylist(),
                             counts.field("counts").to_pylist()))
        for name, stats in info.field_stats.items():
            stats["num_terms"] = num_terms.get(name, 0)
        info.metrics.update(postings_bytes=post_bytes, positions_bytes=pos_bytes)
        meta_path = os.path.join(scratch, META_FILE)
        with open(meta_path, "w") as f:
            f.write(json.dumps(info.to_json()))
        key = _segment_key(out_dir, os.stat(meta_path))
        try:
            os.replace(scratch, out_dir)
        except OSError as e:
            # Linux refuses to rename onto a non-empty directory: another
            # attempt committed this segment first
            if e.errno not in (errno.ENOTEMPTY, errno.EEXIST):
                raise
            shutil.rmtree(scratch)
        else:
            # the rename keeps segment.json's inode, mtime and size, so
            # the committed segment opens warm under this key
            _parts(key).update({TERMS_FILE: terms, NORM_PREFIX: _norm_columns(docs)})
    except BaseException:
        shutil.rmtree(scratch, ignore_errors=True)
        raise
    return info


# The parts cache: TERMS_FILE -> parsed term table and NORM_PREFIX ->
# fieldnorm ids per field, per segment, keyed like open_reader. It
# outlives readers: write_segment fills an entry when its rename wins, a
# reader that misses fills it on first load, and the term-sharded merge
# tasks a worker process runs share it. Whole stores are never cached
# here.
_PARTS: "OrderedDict[tuple, dict]" = OrderedDict()
_PARTS_MAX = 16


def _segment_key(path: str, st: os.stat_result) -> tuple:
    """The cache key of the segment at ``path`` from its ``segment.json``
    stat: segments are immutable once committed, so the key changes only
    when a directory is rewritten at the same path."""
    return (os.path.abspath(path), st.st_ino, st.st_mtime_ns, st.st_size)


def _parts(key: tuple) -> dict:
    """The parts entry of ``key`` (part name -> parsed part), made most
    recently used, with the oldest entries evicted past the bound."""
    entry = _PARTS.get(key)
    if entry is None:
        entry = _PARTS[key] = {}
        while len(_PARTS) > _PARTS_MAX:
            _PARTS.popitem(last=False)
    else:
        _PARTS.move_to_end(key)
    return entry


def _read_parquet(path: str, keep: Callable[[str], bool] | None = None) -> pa.Table:
    """The table at ``path``, or only its columns whose names ``keep``
    accepts. ParquetFile.read skips pq.read_table's dataset layer: 0.34
    against 0.75 ms for a 25-doc commit's 37 KB term table on one x86
    core. Whole stores keep pq.read_table, through which perfbench counts
    store loads."""
    with pq.ParquetFile(path) as f:
        if keep is None:
            return f.read()
        return f.read(columns=[c for c in f.schema_arrow.names if keep(c)])


def _norm_columns(docs: pa.Table) -> dict[str, np.ndarray]:
    """Fieldnorm ids per indexed field from a store's ``__norm_`` columns."""
    return {c[len(NORM_PREFIX):]: docs[c].to_numpy()
            for c in docs.column_names if c.startswith(NORM_PREFIX)}


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

    Searchers and merges get readers only through :func:`open_reader`,
    so every searcher of a process shares one reader per segment, with
    its term dictionaries, caches, norms and store, and a merge reads its
    sources through the readers the searchers hold. Term tables and norms
    load through the parts cache (``_PARTS``), so a segment this process
    wrote or recently read opens without parsing them. Norms load when
    the reader opens, which fails for a segment of the older layout that
    kept them in a file of their own."""

    def __init__(self, path: str, schema: IndexSchema):
        self.path = path
        self.schema = schema
        with open(os.path.join(path, META_FILE)) as f:
            self.info = SegmentInfo.from_json(json.load(f))
            self._key = _segment_key(path, os.fstat(f.fileno()))
        self.codec = FieldNormCodec(self.info.fieldnorm_codec)
        self._norms: dict[str, np.ndarray] = self._part(NORM_PREFIX, self._load_norms)
        self._terms_by_field: dict[str, dict] = {}
        self._postings_mm: np.ndarray | None = None
        self._positions_mm: np.ndarray | None = None
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
            self._terms_table = self._part(
                TERMS_FILE, lambda: _read_parquet(os.path.join(self.path, TERMS_FILE)))
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

    def _part(self, name: str, load: Callable[[], object]):
        """Part ``name`` of this segment, parsed, through the parts cache."""
        entry = _parts(self._key)
        part = entry.get(name)
        if part is None:
            part = entry[name] = load()
        return part

    def _store_columns(self, keep: Callable[[str], bool]) -> pa.Table:
        return _read_parquet(os.path.join(self.path, STORE_FILE), keep)

    def _load_norms(self) -> dict[str, np.ndarray]:
        norms = _norm_columns(self._store_columns(lambda c: c.startswith(NORM_PREFIX)))
        if self.info.field_stats and not norms:
            raise ValueError(
                f"segment {self.path} has no fieldnorm columns in its {STORE_FILE}: "
                "it was written in an older on-disk layout; rebuild the index")
        return norms

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
        """Facet dictionary of a field from its store column: ``(codes,
        paths)`` where ``codes`` is an int32 code per local docid (-1 =
        null) and ``paths`` the sorted path per code (a merged store's
        Arrow dictionary comes back unsorted). ``KeyError`` if the segment
        has no column of the field (its column was missing from the
        documents the segment was built from)."""
        cached = self._facets.get(field)
        if cached is None:
            col = self._store_columns(lambda c: c == FACET_PREFIX + field)
            if not col.num_columns:
                raise KeyError(field)
            cached = self._facets[field] = _factorize_paths(col.column(0))
        return cached


# held weakly: a reader leaves once no searcher holds it, so merged-away
# and deleted segments leave no entry
_LIVE_READERS: "weakref.WeakValueDictionary[tuple, SegmentReader]" = (
    weakref.WeakValueDictionary())


def open_reader(path: str, schema: IndexSchema) -> SegmentReader:
    """The process's live reader of the segment at ``path``, opened if no
    searcher or merge holds one. Segments are immutable once committed;
    the key carries ``segment.json``'s inode, mtime and size, so a
    directory rewritten at the same path (an index deleted and rebuilt)
    opens a new reader, and misses the parts cache's old entry."""
    key = _segment_key(path, os.stat(os.path.join(path, META_FILE)))
    reader = _LIVE_READERS.get(key)
    if reader is None:
        reader = _LIVE_READERS[key] = SegmentReader(path, schema)
    return reader
