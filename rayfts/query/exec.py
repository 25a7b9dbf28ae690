"""Per-segment query execution.

Exact, fully-vectorized evaluation of the query AST against one
``SegmentReader``: posting intersection (must) = sorted merge on docid,
must_not = anti-join, should = union with score accumulation — the
Ray-native re-expression of tantivy's boolean scorers (SURVEY.md §2.3
#16-23). Term and phrase nodes score Okapi BM25 with *searcher-level*
(cross-segment) statistics passed in as ``GlobalStats``; range / fuzzy /
regex / all score constant 1.0 like tantivy 0.18.

``top_k_term_union`` adds a max-score / block-max pruned path for the
hot serving case (bare term(s), OR semantics): terms are processed in
descending max-score-bound order; once the summed bound of the remaining
terms cannot lift a new document into the top-k, the remaining (long,
stop-word-like) posting lists are only decoded where their skip-table
blocks overlap current candidates — the block-max WAND idea expressed
block-at-a-time so every step stays a numpy kernel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from rayfts.codec.postings import decode_skips
from rayfts.index.schema import NUMERIC_TYPES
from rayfts.index.segment import SegmentReader
from rayfts.query import bm25
from rayfts.query.ast import QueryError
from rayfts.query.ast import (
    All,
    Bool,
    Fuzzy,
    Phrase,
    Query,
    Range,
    Regex,
    Term,
)


@dataclass
class GlobalStats:
    """Searcher-level statistics (summed across all segments, SURVEY §8.2)."""

    n_docs: int
    avgdl: dict[str, float]  # field -> average doc length
    df: dict[tuple[str, str], int]  # (field, term) -> global doc freq

    def idf(self, field: str, term: str) -> float:
        return bm25.idf(self.n_docs, self.df.get((field, term), 0))


Matches = tuple[np.ndarray, np.ndarray]  # (docids u32 sorted asc, scores f64)

_EMPTY: Matches = (np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.float64))


def _decoded_dls(seg: SegmentReader, field: str) -> np.ndarray:
    return seg.decoded_norms(field)


def execute(q: Query, seg: SegmentReader, stats: GlobalStats) -> Matches:
    """Exact evaluation -> (sorted local docids, scores)."""
    if isinstance(q, Term):
        return _exec_term(q, seg, stats)
    if isinstance(q, Phrase):
        return _exec_phrase(q, seg, stats)
    if isinstance(q, Bool):
        return _exec_bool(q, seg, stats)
    if isinstance(q, Range):
        return _exec_range(q, seg, stats)
    if isinstance(q, Fuzzy):
        return _exec_fuzzy(q, seg, stats)
    if isinstance(q, Regex):
        return _exec_regex(q, seg, stats)
    if isinstance(q, All):
        n = seg.num_docs
        return np.arange(n, dtype=np.uint32), np.ones(n, dtype=np.float64)
    raise TypeError(f"unexecutable query node {type(q).__name__} (Raw must be parsed first)")


def _exec_term(q: Term, seg: SegmentReader, stats: GlobalStats) -> Matches:
    pl = seg.postings(q.field, q.value)
    if pl is None:
        return _EMPTY
    dls = _decoded_dls(seg, q.field)[pl.docids]
    scores = bm25.score(pl.tfs, dls, stats.avgdl[q.field], stats.idf(q.field, q.value))
    return pl.docids, scores


def _exec_phrase(q: Phrase, seg: SegmentReader, stats: GlobalStats) -> Matches:
    """Position-list intersection: doc matches if the terms occur at
    consecutive positions. tf = number of phrase occurrences; idf = sum of
    the member terms' idfs (SURVEY §8.2 phrase weight)."""
    if not q.terms:
        return _EMPTY
    ordinals = []
    for t in q.terms:
        o = seg.term_ordinal(q.field, t)
        if o is None:
            return _EMPTY
        ordinals.append(o)
    pls = [seg.postings_by_ordinal(q.field, o) for o in ordinals]
    common = pls[0].docids
    for pl in pls[1:]:
        common = np.intersect1d(common, pl.docids, assume_unique=True)
    if common.size == 0:
        return _EMPTY
    # fully vectorized phrase matching on fused (doc_rank << 32 | position)
    # keys: one intersect1d per phrase term instead of a Python loop over
    # candidate docs (decisive for stop-word phrases with 10^5+ candidates)
    _keys_cache: dict[int, np.ndarray] = {}

    def fused_keys(pl, o) -> np.ndarray:
        cached = _keys_cache.get(o)  # repeated terms ("the the") decode once
        if cached is not None:
            return cached
        flat, starts, ends = seg.positions_flat(q.field, o, pl.tfs)
        sel = np.searchsorted(pl.docids, common)
        lens = (ends[sel] - starts[sel]).astype(np.int64)
        total = int(lens.sum())
        offs = np.concatenate([[0], np.cumsum(lens)[:-1]])
        take = np.repeat(starts[sel], lens) + (np.arange(total) - np.repeat(offs, lens))
        doc_rank = np.repeat(np.arange(sel.size, dtype=np.int64), lens)
        out = (doc_rank << np.int64(32)) | flat[take]
        _keys_cache[o] = out
        return out

    # expected position of term j = p0 + (ordinal_j - ordinal_0); offsets
    # default to consecutive but carry analyzer gaps (dropped tokens)
    offs = q.offsets if q.offsets is not None else tuple(range(len(q.terms)))
    cand = fused_keys(pls[0], ordinals[0])
    for j in range(1, len(pls)):
        gap = np.int64(offs[j] - offs[j - 1])
        cand = np.intersect1d(cand + gap, fused_keys(pls[j], ordinals[j]), assume_unique=True)
        if cand.size == 0:
            return _EMPTY
    phrase_tfs = np.bincount(cand >> np.int64(32), minlength=common.size).astype(np.uint32)
    keep = phrase_tfs > 0
    docids = common[keep].astype(np.uint32)
    if docids.size == 0:
        return _EMPTY
    total_idf = sum(stats.idf(q.field, t) for t in q.terms)
    dls = _decoded_dls(seg, q.field)[docids]
    scores = bm25.score(phrase_tfs[keep], dls, stats.avgdl[q.field], total_idf)
    return docids, scores


def _exec_bool(q: Bool, seg: SegmentReader, stats: GlobalStats) -> Matches:
    if q.must:
        docids, scores = execute(q.must[0], seg, stats)
        for sub in q.must[1:]:
            d2, s2 = execute(sub, seg, stats)
            docids, i1, i2 = np.intersect1d(
                docids, d2, assume_unique=True, return_indices=True
            )
            scores = scores[i1] + s2[i2]
        # should clauses add score to docs already matching the musts
        for sub in q.should:
            d2, s2 = execute(sub, seg, stats)
            pos = np.searchsorted(docids, d2)
            ok = (pos < docids.size) & (docids[np.minimum(pos, docids.size - 1)] == d2) if docids.size else np.zeros(d2.size, bool)
            scores[pos[ok]] += s2[ok]
    elif q.should:
        parts = [execute(sub, seg, stats) for sub in q.should]
        all_d = np.concatenate([p[0] for p in parts])
        all_s = np.concatenate([p[1] for p in parts])
        if all_d.size == 0:
            return _EMPTY
        docids, inv = np.unique(all_d, return_inverse=True)
        scores = np.zeros(docids.size, dtype=np.float64)
        np.add.at(scores, inv, all_s)
    elif q.must_not:
        # pure-negation: match everything except (tantivy: must_not alone
        # matches nothing unless paired; we pair with All like the parser does)
        return _EMPTY
    else:
        return _EMPTY
    for sub in q.must_not:
        d2, _ = execute(sub, seg, stats)
        if d2.size:
            keep = ~np.isin(docids, d2, assume_unique=True)
            docids, scores = docids[keep], scores[keep]
    return docids.astype(np.uint32), scores


def _terms_in_range(seg: SegmentReader, q: Range) -> np.ndarray:
    e = seg.term_dict(q.field)
    arr = e["terms"]
    lo = 0
    hi = arr.size
    if q.gte is not None:
        lo = int(np.searchsorted(arr, str(q.gte), side="left"))
    if q.gt is not None:
        lo = max(lo, int(np.searchsorted(arr, str(q.gt), side="right")))
    if q.lte is not None:
        hi = min(hi, int(np.searchsorted(arr, str(q.lte), side="right")))
    if q.lt is not None:
        hi = min(hi, int(np.searchsorted(arr, str(q.lt), side="left")))
    return np.arange(lo, max(lo, hi))


def _union_ordinals(seg: SegmentReader, field: str, ordinals: np.ndarray) -> Matches:
    if ordinals.size == 0:
        return _EMPTY
    docs = [seg.postings_by_ordinal(field, int(o)).docids for o in ordinals]
    u = np.unique(np.concatenate(docs))
    return u.astype(np.uint32), np.ones(u.size, dtype=np.float64)


def _exec_range(q: Range, seg: SegmentReader, stats: GlobalStats) -> Matches:
    try:
        fdef = seg.schema.field(q.field)
    except KeyError:
        raise QueryError(f"unknown range field {q.field!r}") from None
    if fdef.type in NUMERIC_TYPES and fdef.fast:
        col = seg.fast_column(q.field)
        conv = float if fdef.type == "f64" else int

        def num(v):
            try:
                return conv(v)
            except (TypeError, ValueError):
                raise QueryError(
                    f"non-numeric bound {v!r} for {fdef.type} range on "
                    f"{q.field!r}") from None

        mask = np.ones(col.size, dtype=bool)
        if q.gte is not None:
            mask &= col >= num(q.gte)
        if q.gt is not None:
            mask &= col > num(q.gt)
        if q.lte is not None:
            mask &= col <= num(q.lte)
        if q.lt is not None:
            mask &= col < num(q.lt)
        d = np.flatnonzero(mask).astype(np.uint32)
        return d, np.ones(d.size, dtype=np.float64)
    return _union_ordinals(seg, q.field, _terms_in_range(seg, q))


def _exec_regex(q: Regex, seg: SegmentReader, stats: GlobalStats) -> Matches:
    e = seg.term_dict(q.field)
    import pyarrow as pa
    import pyarrow.compute as pc

    # full-match semantics over the term dictionary (tantivy RegexQuery)
    try:
        mask = pc.match_substring_regex(
            e["terms_pa"], f"^(?:{q.pattern})$"
        ).to_numpy(zero_copy_only=False)
    except pa.lib.ArrowInvalid as exc:
        raise QueryError(f"invalid regex pattern {q.pattern!r}: {exc}") from None
    return _union_ordinals(seg, q.field, np.flatnonzero(mask))


def _levenshtein_within(a: str, b: str, limit: int, transposition: bool) -> bool:
    """Banded DP edit distance with early exit (Damerau when transposition)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > limit:
        return False
    prev_row = list(range(lb + 1))
    prev_prev: list[int] | None = None
    for i in range(1, la + 1):
        row = [i] + [0] * lb
        best = i
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            v = min(prev_row[j] + 1, row[j - 1] + 1, prev_row[j - 1] + cost)
            if (
                transposition
                and prev_prev is not None
                and i > 1
                and j > 1
                and a[i - 1] == b[j - 2]
                and a[i - 2] == b[j - 1]
            ):
                v = min(v, prev_prev[j - 2] + 1)
            row[j] = v
            best = min(best, v)
        if best > limit:
            return False
        prev_prev, prev_row = prev_row, row
    return prev_row[lb] <= limit


# byte-popcount table for the uint64 signature prefilter below
_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                      axis=1).sum(1).astype(np.int64)


def _fuzzy_batch_within(query: str, terms: np.ndarray, limit: int,
                        transposition: bool,
                        lens: np.ndarray | None = None) -> np.ndarray:
    """Vectorized BANDED (Damerau-)Levenshtein ``<= limit`` for a BATCH
    of candidate terms. The DP runs in diagonal coordinates: for column
    ``j`` (candidate prefix length) only the ``2*limit+1`` diagonals
    ``i = j + d, |d| <= limit`` can stay within the threshold, so each
    column costs ``2*limit+1`` small-int vector ops over all candidates
    at once (values saturate at ``limit+1``) — a multi-million-term
    dictionary scans in a handful of band-lane passes instead of
    per-term Python DP calls. Returns a bool mask."""
    n = len(terms)
    m = len(query)
    INF = np.int16(limit + 1)
    if n == 0:
        return np.zeros(0, dtype=bool)
    if lens is None:
        lens = np.fromiter((len(t) for t in terms), dtype=np.int64, count=n)
    out = np.full(n, min(m, int(INF)), dtype=np.int16)  # empty candidates
    lmax = int(lens.max(initial=0))
    if lmax == 0 or m == 0:
        other = np.minimum(np.maximum(lens, m), int(INF))
        out = np.where(lens > 0, other.astype(np.int16), out)
        return out <= limit
    qc = np.frombuffer(query.encode("utf-32-le"), dtype=np.uint32)
    # candidate codepoint matrix (n, lmax), zero-padded — padding never
    # leaks because each candidate's result is read at j == its length
    U = np.asarray(terms, dtype=f"<U{lmax}").view(np.uint32).reshape(n, lmax)
    W = 2 * limit + 1
    # band lane k = d + limit holds D(j + d, j)
    band_prev = np.empty((W, n), dtype=np.int16)
    for k in range(W):
        d = k - limit
        band_prev[k] = d if 0 <= d <= min(m, limit) else INF
    band_pp = None
    for j in range(1, lmax + 1):
        cj = U[:, j - 1]
        band = np.full((W, n), INF, dtype=np.int16)
        for k in range(W):
            i = j + k - limit
            if i < 0 or i > m:
                continue
            if i == 0:
                band[k] = min(j, int(INF))
                continue
            # D(i-1, j-1) + cost — same lane, previous column
            v = band_prev[k] + (cj != qc[i - 1]).astype(np.int16)
            if k > 0:  # D(i-1, j) + 1 — lower lane, THIS column
                v = np.minimum(v, band[k - 1] + np.int16(1))
            if k + 1 < W:  # D(i, j-1) + 1 — upper lane, previous column
                v = np.minimum(v, band_prev[k + 1] + np.int16(1))
            if transposition and band_pp is not None and i >= 2 and j >= 2:
                tr = (cj == qc[i - 2]) & (U[:, j - 2] == qc[i - 1])
                v = np.where(tr, np.minimum(v, band_pp[k] + np.int16(1)), v)
            band[k] = np.minimum(v, INF)
        fin = lens == j
        if fin.any():
            k_fin = m - j + limit  # lane of D(m, j)
            if 0 <= k_fin < W:
                out[fin] = band[k_fin][fin]
            else:  # outside the band: distance surely > limit
                out[fin] = INF
        band_pp, band_prev = band_prev, band
    return out <= limit


def _exec_fuzzy(q: Fuzzy, seg: SegmentReader, stats: GlobalStats) -> Matches:
    """Term-dict scan: vectorized length pre-filter, then the batched
    numpy DP above, chunked to bound the (|query|+1) x chunk DP matrix
    (~16 MB per chunk at 64k candidates x 30-char queries). Plays the
    role of tantivy's Levenshtein-automaton-over-FST intersection
    [tantivy 0.18, public] with dictionary-at-once vector arithmetic
    instead of automaton states."""
    e = seg.term_dict(q.field)
    arr = e["terms"]
    lens = e["term_lens"]  # Arrow-vectorized, cached per (segment, field)
    lv = len(q.value)
    cand = np.flatnonzero(np.abs(lens - lv) <= q.distance)
    if cand.size:
        # character-set signature prefilter (see _LazyTermEntry
        # "term_sigs"): a term within distance d differs from the query
        # in at most d DISTINCT characters per side. Transpositions
        # permute the multiset, so the bound holds for Damerau too.
        # Collisions only undercount — no true match is ever dropped.
        sigs = e["term_sigs"][cand]
        qcp = np.frombuffer(q.value.encode("utf-32-le"), dtype=np.uint32)
        qbits = ((qcp.astype(np.uint64) *
                  np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(58))
        qsig = np.uint64(np.bitwise_or.reduce(np.uint64(1) << qbits)
                         if qbits.size else 0)
        miss_q = _POP8[(qsig & ~sigs).view(np.uint8).reshape(-1, 8)].sum(1)
        miss_t = _POP8[(sigs & ~qsig).view(np.uint8).reshape(-1, 8)].sum(1)
        cand = cand[(miss_q <= q.distance) & (miss_t <= q.distance)]
    if cand.size <= 64:
        # the signature prefilter typically leaves a handful of
        # survivors per segment; a scalar DP over short strings beats
        # the fixed cost of the vectorized band machinery there
        hits = np.asarray(
            [o for o in cand
             if _levenshtein_within(q.value, arr[o], q.distance,
                                    q.transposition)], dtype=np.int64)
        return _union_ordinals(seg, q.field, hits)
    hit_parts = []
    chunk = 1 << 16
    for s in range(0, cand.size, chunk):
        c = cand[s:s + chunk]
        mask = _fuzzy_batch_within(q.value, arr[c], q.distance,
                                   q.transposition, lens=lens[c])
        hit_parts.append(c[mask])
    hits = (np.concatenate(hit_parts) if hit_parts
            else np.zeros(0, dtype=np.int64))
    return _union_ordinals(seg, q.field, hits.astype(np.int64))


# ---------------------------------------------------------------------------
# Block-max pruned top-k union (the serving hot path)
# ---------------------------------------------------------------------------


def _decode_blocks(seg: SegmentReader, field: str, ordinal: int, block_idx: np.ndarray):
    """Decode only the selected blocks of a posting list (skip-table
    random access): returns (docids, tfs) of those blocks."""
    from rayfts.codec.postings import decode_blocks

    e = seg.term_dict(field)
    off, ln = int(e["post_off"][ordinal]), int(e["post_len"][ordinal])
    return decode_blocks(seg._postings_buf()[off : off + ln], block_idx)


def top_k_single_term(
    seg: SegmentReader, stats: GlobalStats, field: str, term: str, k: int
) -> Matches:
    """Block-max early termination for ONE term: per-block score bounds
    from the skip table (max tf, min fieldnorm), blocks visited in
    descending bound order, stop as soon as the next bound cannot beat the
    current k-th best score. Exact top-k candidates with exact scores;
    long stop-word lists typically decode only a fraction of their blocks.
    """
    if k <= 0:  # top-0 is empty; the pruning loops assume k >= 1
        return _EMPTY
    o = seg.term_ordinal(field, term)
    if o is None:
        return _EMPTY
    e = seg.term_dict(field)
    off, ln = int(e["post_off"][o]), int(e["post_len"][o])
    raw = seg._postings_buf()[off : off + ln]
    n, skips = decode_skips(raw)
    term_idf = stats.idf(field, term)
    avgdl = stats.avgdl[field]
    if skips.size <= 4:  # short list: decode everything
        pl = seg.postings_by_ordinal(field, o)
        dls = _decoded_dls(seg, field)[pl.docids]
        return pl.docids, bm25.score(pl.tfs, dls, avgdl, term_idf)

    min_dls = seg.codec.decode(skips["min_norm"]).astype(np.float64)
    max_tfs = skips["max_tf"].astype(np.float64)
    w = max_tfs / (max_tfs + bm25.K1 * (1.0 - bm25.B + bm25.B * min_dls / avgdl))
    bounds = term_idf * (bm25.K1 + 1.0) * w
    order = np.argsort(-bounds)
    dls_all = _decoded_dls(seg, field)

    acc_docs = np.empty(0, dtype=np.uint32)
    acc_scores = np.empty(0, dtype=np.float64)
    threshold = -np.inf
    CHUNK = 32  # blocks per decode round: larger = fewer vectorized calls,
    # at worst CHUNK-1 unneeded block decodes after the cutoff
    for i in range(0, order.size, CHUNK):
        blocks = order[i : i + CHUNK]
        # strict <: an equal-bound block can still hold an equal-score doc
        # whose smaller docid wins the (score desc, docid asc) tie-break
        if acc_scores.size >= k and float(bounds[blocks[0]]) < threshold:
            break
        docs, tfs = _decode_blocks(seg, field, o, np.sort(blocks))
        scores = bm25.score(tfs, dls_all[docs], avgdl, term_idf)
        acc_docs = np.concatenate([acc_docs, docs])
        acc_scores = np.concatenate([acc_scores, scores])
        if acc_scores.size > k:
            keep = np.lexsort((acc_docs, -acc_scores))[:k]  # tie-safe trim
            acc_docs, acc_scores = acc_docs[keep], acc_scores[keep]
        if acc_scores.size >= k:
            threshold = float(acc_scores.min())
    return acc_docs, acc_scores


def top_k_term_union(
    seg: SegmentReader,
    stats: GlobalStats,
    pairs: list[tuple[str, str]],
    k: int,
) -> Matches:
    """Max-score / block-max pruned OR over term queries (one or many).

    Terms are accumulated rarest-first (highest max score bound first).
    Once the summed max bound of the unprocessed terms drops below the
    current k-th best score, no unseen document can reach the top-k, so
    the remaining lists are decoded only in blocks that overlap existing
    candidates (skip-table ``last_docid`` ranges — block-max skipping).
    Returns exact top-k-correct (docids, scores) for all candidate docs
    touched (a superset of the true top-k, each with its exact score).
    """
    if k <= 0:  # top-0 is empty; the threshold logic assumes k >= 1
        return _EMPTY
    if len(pairs) == 1:
        return top_k_single_term(seg, stats, pairs[0][0], pairs[0][1], k)
    entries = []
    for field, term in pairs:
        o = seg.term_ordinal(field, term)
        if o is None:
            continue
        e = seg.term_dict(field)
        off, ln = int(e["post_off"][o]), int(e["post_len"][o])
        raw = seg._postings_buf()[off : off + ln]
        n, skips = decode_skips(raw)
        term_idf = stats.idf(field, term)
        avgdl = stats.avgdl[field]
        min_norm_dl = seg.codec.decode(skips["min_norm"]).min() if skips.size else 0
        bound = bm25.block_max_score_bound(
            float(skips["max_tf"].max()) if skips.size else 1.0,
            float(min_norm_dl), avgdl, term_idf,
        )
        entries.append({"field": field, "term": term, "ordinal": o, "n": n,
                        "skips": skips, "idf": term_idf, "bound": bound})
    if not entries:
        return _EMPTY
    entries.sort(key=lambda d: -d["bound"])
    remaining_bound = sum(d["bound"] for d in entries)

    acc_docs = np.empty(0, dtype=np.uint32)
    acc_scores = np.empty(0, dtype=np.float64)
    for d in entries:
        remaining_bound -= d["bound"]
        threshold = 0.0
        if acc_scores.size >= k:
            threshold = float(np.partition(acc_scores, acc_scores.size - k)[acc_scores.size - k])
        field = d["field"]
        dls_all = _decoded_dls(seg, field)
        prune = acc_scores.size >= k and d["bound"] + remaining_bound < threshold
        if prune:
            # only blocks overlapping current candidates can change the top-k
            skips = d["skips"]
            lasts = skips["last_docid"]
            firsts = np.concatenate([[0], lasts[:-1] + 1])
            lo = np.searchsorted(acc_docs, firsts, side="left")
            hi = np.searchsorted(acc_docs, lasts, side="right")
            blocks = np.flatnonzero(hi > lo)
            docs, tfs = _decode_blocks(seg, field, d["ordinal"], blocks)
            if docs.size:
                keep = np.isin(docs, acc_docs, assume_unique=True)
                docs, tfs = docs[keep], tfs[keep]
        else:
            pl = seg.postings_by_ordinal(field, d["ordinal"])
            docs, tfs = pl.docids, pl.tfs
        if docs.size == 0:
            continue
        scores = bm25.score(tfs, dls_all[docs], stats.avgdl[field], d["idf"])
        both = np.concatenate([acc_docs, docs])
        merged, inv = np.unique(both, return_inverse=True)
        out = np.zeros(merged.size, dtype=np.float64)
        np.add.at(out, inv[: acc_docs.size], acc_scores)
        np.add.at(out, inv[acc_docs.size :], scores)
        acc_docs, acc_scores = merged.astype(np.uint32), out
    return acc_docs, acc_scores
