"""Query execution.

Exact, fully-vectorized evaluation of the query AST against one
``SegmentReader``, or once against a searcher's ``SegmentsView`` of all
its segments: posting intersection (must) = sorted merge on docid,
must_not = anti-join, should = union with score accumulation — the
Ray-native re-expression of tantivy's boolean scorers (SURVEY.md §2.3
#16-23). Term and phrase nodes score Okapi BM25 with *searcher-level*
(cross-segment) statistics passed in as ``GlobalStats``; range / fuzzy /
regex / all score constant 1.0 like tantivy 0.18. Fuzzy and regex nodes
are expanded once per query by the searcher, over a ``TermDictionary`` of
all its segments, and reach each segment through ``GlobalStats.expansions``.

Over a view, term leaves gather every segment's postings and score them
together and ``Bool`` combinators run once on the concatenated arrays;
phrase, range, fuzzy, regex and all leaves run per segment and their
matches are concatenated in view docids.

``top_k_term_union`` is the max-score pruned path for the hot serving
case (bare term(s), OR semantics), also run once over the view: terms
are taken in descending max-score order, and once the summed bound of
the remaining terms cannot lift a new document into the top-k, the
remaining (long, stop-word-like) lists only add score to the candidates
already held.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from rayfts.index.schema import NUMERIC_TYPES
from rayfts.index.segment import SegmentReader, lower_bound
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
from rayfts.query.view import SegmentsView


@dataclass
class GlobalStats:
    """Searcher-level statistics (summed across all segments, SURVEY §8.2)."""

    n_docs: int
    avgdl: dict[str, float]  # field -> average doc length
    df: dict[tuple[str, str], int]  # (field, term) -> global doc freq
    # Fuzzy / Regex node -> the dictionary terms it matched (Searcher fills it)
    expansions: dict[Query, Expansion] = dc_field(default_factory=dict)

    def idf(self, field: str, term: str) -> float:
        return bm25.idf(self.n_docs, self.df.get((field, term), 0))


Matches = tuple[np.ndarray, np.ndarray]  # (docids u32 sorted asc, scores f64)

_EMPTY: Matches = (np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.float64))


def execute(q: Query, seg: SegmentReader | SegmentsView, stats: GlobalStats) -> Matches:
    """Exact evaluation -> (sorted docids of ``seg``, scores)."""
    if isinstance(q, Term):
        return _exec_term(q, seg, stats)
    if isinstance(q, Bool):
        return _exec_bool(q, seg, stats)
    if isinstance(seg, SegmentsView):
        return seg.gather(lambda r: execute(q, r, stats))
    if isinstance(q, Phrase):
        return _exec_phrase(q, seg, stats)
    if isinstance(q, Range):
        return _exec_range(q, seg, stats)
    if isinstance(q, (Fuzzy, Regex)):
        return _union_ordinals(seg, q.field, stats.expansions[q].ordinals(seg))
    if isinstance(q, All):
        n = seg.num_docs
        return np.arange(n, dtype=np.uint32), np.ones(n, dtype=np.float64)
    raise TypeError(f"unexecutable query node {type(q).__name__} (Raw must be parsed first)")


def _exec_term(q: Term, seg: SegmentReader | SegmentsView, stats: GlobalStats) -> Matches:
    if isinstance(seg, SegmentsView):
        got = seg.term_postings(q.field, q.value)
    else:
        pl = seg.postings(q.field, q.value)
        got = None if pl is None else (
            pl.docids, pl.tfs, seg.decoded_norms(q.field)[pl.docids])
    if got is None:
        return _EMPTY
    docids, tfs, dls = got
    scores = bm25.score(tfs, dls, stats.avgdl[q.field], stats.idf(q.field, q.value))
    return docids, scores


def _exec_phrase(q: Phrase, seg: SegmentReader, stats: GlobalStats) -> Matches:
    """Position-list intersection: doc matches if the terms occur at
    consecutive positions. tf = number of phrase occurrences; idf = sum of
    the member terms' idfs (SURVEY §8.2 phrase weight).

    Each term's occurrences are ``docid << 32 | position`` keys built from
    the reader's cached positions. Candidates start as the rarest term's
    keys, anchored at the phrase start, and each other term, in order of
    frequency, keeps those its occurrences continue (Koios: filter with the
    most selective list, then verify)."""
    if not q.terms:
        return _EMPTY
    ordinals = []
    for t in q.terms:
        o = seg.term_ordinal(q.field, t)
        if o is None:
            return _EMPTY
        ordinals.append(o)
    # expected position of term j = phrase start + offsets[j]; offsets
    # default to consecutive but carry analyzer gaps (dropped tokens)
    offs = q.offsets if q.offsets is not None else range(len(q.terms))
    shifts = [np.int64(o - offs[0]) for o in offs]
    total_tf = seg.term_dict(q.field)["total_tf"]
    order = sorted(range(len(ordinals)), key=lambda j: total_tf[ordinals[j]])
    keys: dict[int, np.ndarray] = {}  # repeated terms ("the the") build once

    def term_keys(o: int) -> np.ndarray:
        k = keys.get(o)
        if k is None:
            pl, positions = seg.term_positions(q.field, o)
            docs = np.repeat(pl.docids.astype(np.int64) << np.int64(32), pl.tfs)
            k = keys[o] = docs | positions
        return k

    cand = term_keys(ordinals[order[0]]) - shifts[order[0]]
    for j in order[1:]:
        cand = _sorted_common(cand + shifts[j], term_keys(ordinals[j])) - shifts[j]
        if cand.size == 0:
            return _EMPTY
    # survivors are sorted: phrase tf = run length of each docid
    docs = cand >> np.int64(32)
    starts = np.flatnonzero(np.diff(docs, prepend=np.int64(-1)))
    phrase_tfs = np.diff(np.append(starts, docs.size))
    docids = docs[starts].astype(np.uint32)
    total_idf = sum(stats.idf(q.field, t) for t in q.terms)
    dls = seg.decoded_norms(q.field)[docids]
    scores = bm25.score(phrase_tfs, dls, stats.avgdl[q.field], total_idf)
    return docids, scores


def _sorted_common(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The values of ``a`` also in ``b``; both sorted and duplicate-free.
    A stable sort of the two runs is one merge, and it puts each match
    next to its twin."""
    s = np.concatenate([a, b])
    s.sort(kind="stable")
    return s[:-1][s[1:] == s[:-1]]


def _exec_bool(q: Bool, seg: SegmentReader | SegmentsView, stats: GlobalStats) -> Matches:
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
        parts = [p for p in (execute(sub, seg, stats) for sub in q.should) if p[0].size]
        if not parts:
            return _EMPTY
        if len(parts) == 1:  # nothing to union (a word absent from a field)
            docids, scores = parts[0]
        else:
            docids, inv = np.unique(np.concatenate([p[0] for p in parts]),
                                    return_inverse=True)
            scores = np.zeros(docids.size, dtype=np.float64)
            np.add.at(scores, inv, np.concatenate([p[1] for p in parts]))
    else:
        # no clauses, or pure negation (tantivy: must_not alone matches
        # nothing unless paired; we pair with All like the parser does)
        return _EMPTY
    for sub in q.must_not:
        d2, _ = execute(sub, seg, stats)
        if d2.size:
            keep = ~np.isin(docids, d2, assume_unique=True)
            docids, scores = docids[keep], scores[keep]
    return docids.astype(np.uint32), scores


def _terms_in_range(seg: SegmentReader, q: Range) -> np.ndarray:
    arr = seg.term_dict(q.field)["terms_pa"]

    def bound(value, past_equal: bool) -> int:
        key = str(value)
        i = lower_bound(arr, key)
        if past_equal and i < len(arr) and arr[i].as_py() == key:
            i += 1
        return i

    lo, hi = 0, len(arr)
    if q.gte is not None:
        lo = bound(q.gte, False)
    if q.gt is not None:
        lo = max(lo, bound(q.gt, True))
    if q.lte is not None:
        hi = min(hi, bound(q.lte, True))
    if q.lt is not None:
        hi = min(hi, bound(q.lt, False))
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


def _char_signatures(terms: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """64-bit character-SET signature per term. One edit changes at most
    one distinct character on each side, so |chars(q) minus chars(t)| <= d
    is NECESSARY for distance <= d; hash collisions only merge bits, which
    UNDERCOUNTS the difference, so the fuzzy prefilter built on these
    never drops a true match. Computed chunked so the transient
    (chunk, lmax) codepoint matrix stays small."""
    sigs = np.zeros(terms.size, dtype=np.uint64)
    step = 1 << 16
    for s in range(0, terms.size, step):
        part = terms[s:s + step]
        lmax = int(lens[s:s + step].max(initial=0))
        if lmax == 0:
            continue
        U = np.asarray(part, dtype=f"<U{lmax}").view(
            np.uint32).reshape(len(part), lmax)
        bits = ((U.astype(np.uint64) *
                 np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(58))
        lanes = np.where(U != 0, np.uint64(1) << bits, np.uint64(0))
        sigs[s:s + step] = np.bitwise_or.reduce(lanes, axis=1)
    return sigs


class TermDictionary:
    """One field's terms over all of a searcher's segments, deduplicated
    (16 segments of a 228k-term index hold 21.8k distinct terms). A Fuzzy
    or Regex node is matched against it once per query, and each segment
    maps the matched terms back to its own ordinals through ``ids``. The
    string array, lengths and signatures the fuzzy scan needs are built
    on its first use."""

    def __init__(self, readers: list[SegmentReader], field: str):
        self._fuzzy_arrays = None
        parts = ([r.term_dict(field)["terms_pa"] for r in readers]
                 or [pa.array([], type=pa.string())])
        enc = pc.dictionary_encode(pa.concat_arrays(parts))
        self.terms_pa = enc.dictionary
        ends = np.cumsum([len(p) for p in parts])[:-1]
        # reader -> dictionary index of each of its term ordinals
        self.ids = dict(zip(readers, np.split(enc.indices.to_numpy(), ends)))

    def expand(self, q: Fuzzy | Regex) -> Expansion:
        hits = self._fuzzy(q) if isinstance(q, Fuzzy) else self._regex(q)
        return Expansion(self, hits)

    def _regex(self, q: Regex) -> np.ndarray:
        # full-match semantics over the term dictionary (tantivy RegexQuery)
        pattern = f"^(?:{q.pattern})$"
        try:
            if not len(self.terms_pa):
                # Arrow compiles the pattern only for a non-empty input
                pc.match_substring_regex(pa.array([""]), pattern)
            mask = pc.match_substring_regex(self.terms_pa, pattern)
        except pa.lib.ArrowInvalid as exc:
            raise QueryError(f"invalid regex pattern {q.pattern!r}: {exc}") from None
        return mask.to_numpy(zero_copy_only=False)

    def _fuzzy(self, q: Fuzzy) -> np.ndarray:
        """Length prefilter, signature prefilter, then the scalar DP for a
        handful of survivors or the batched numpy DP, chunked to bound the
        band matrices (~16 MB per chunk at 64k candidates). Plays the role
        of tantivy's Levenshtein-automaton-over-FST intersection
        [tantivy 0.18, public] with dictionary-at-once vector arithmetic
        instead of automaton states."""
        if self._fuzzy_arrays is None:
            terms = np.asarray(self.terms_pa.to_pylist(), dtype=object)
            lens = pc.utf8_length(self.terms_pa).to_numpy(
                zero_copy_only=False).astype(np.int64)
            self._fuzzy_arrays = terms, lens, _char_signatures(terms, lens)
        terms, lens, sigs = self._fuzzy_arrays
        hits = np.zeros(terms.size, dtype=bool)
        cand = np.flatnonzero(np.abs(lens - len(q.value)) <= q.distance)
        if cand.size:
            # a term within distance d differs from the query in at most d
            # DISTINCT characters per side; transpositions permute the
            # multiset, so the bound holds for Damerau too
            qsig = _char_signatures(np.array([q.value], dtype=object),
                                    np.array([len(q.value)]))[0]
            miss_q = _POP8[(qsig & ~sigs[cand]).view(np.uint8).reshape(-1, 8)].sum(1)
            miss_t = _POP8[(sigs[cand] & ~qsig).view(np.uint8).reshape(-1, 8)].sum(1)
            cand = cand[(miss_q <= q.distance) & (miss_t <= q.distance)]
        if cand.size <= 64:
            # the prefilters typically leave a handful of survivors; a
            # scalar DP over short strings beats the fixed cost of the
            # vectorized band machinery there
            for o in cand:
                hits[o] = _levenshtein_within(q.value, terms[o], q.distance,
                                              q.transposition)
            return hits
        chunk = 1 << 16
        for s in range(0, cand.size, chunk):
            c = cand[s:s + chunk]
            hits[c] = _fuzzy_batch_within(q.value, terms[c], q.distance,
                                          q.transposition, lens=lens[c])
        return hits


@dataclass(eq=False)
class Expansion:
    """The terms of a ``TermDictionary`` that one Fuzzy or Regex node
    matched, as a mask over the dictionary."""

    dictionary: TermDictionary
    hits: np.ndarray

    def ordinals(self, seg: SegmentReader) -> np.ndarray:
        return np.flatnonzero(self.hits[self.dictionary.ids[seg]])


# ---------------------------------------------------------------------------
# Max-score pruned top-k union (the serving hot path)
# ---------------------------------------------------------------------------


def top_k_term_union(
    view: SegmentsView,
    stats: GlobalStats,
    pairs: list[tuple[str, str]],
    k: int,
) -> Matches:
    """Max-score pruned OR over term queries (one or many), once over a
    searcher's view.

    Each pair's postings over every segment are scored, and the list's
    highest score is its bound. Lists are taken in descending bound
    order and unioned while the summed bound of the lists not yet taken
    could still lift a new document to the current k-th best score.
    From then on no unseen document can reach the top-k, so each
    remaining list only adds score to the candidates already held, found
    by binary search in its sorted docids (cutoff, then verify). Returns
    a superset of the top-k in view docids, each with its exact score.
    """
    if k <= 0:  # top-0 is empty; the threshold logic assumes k >= 1
        return _EMPTY
    lists = []
    for field, term in pairs:
        docids, scores = _exec_term(Term(field, term), view, stats)
        if docids.size:
            lists.append((float(scores.max()), docids, scores))
    if not lists:
        return _EMPTY
    lists.sort(key=lambda t: -t[0])
    # summed bound of lists i.. onward, widened so a different summation
    # order of the same scores can never exceed it
    rest = np.cumsum([b for b, _, _ in lists][::-1])[::-1] * (1.0 + 1e-9)
    _, acc_docs, acc_scores = lists[0]
    for i, (_, docids, scores) in enumerate(lists[1:], 1):
        n = acc_docs.size
        if n >= k and rest[i] < np.partition(acc_scores, n - k)[n - k]:
            pos = np.minimum(np.searchsorted(docids, acc_docs), docids.size - 1)
            hit = docids[pos] == acc_docs
            acc_scores[hit] += scores[pos[hit]]
            continue
        acc_docs, inv = np.unique(np.concatenate([acc_docs, docids]), return_inverse=True)
        out = np.zeros(acc_docs.size, dtype=np.float64)
        out[inv[:n]] = acc_scores
        out[inv[n:]] += scores
        acc_scores = out
    return acc_docs, acc_scores
