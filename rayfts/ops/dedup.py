"""Deduplication operators for web-scale corpora.

- exact_dedup:    sha256 + per-batch combiner + native min-aggregate
- minhash_lsh:    shingle -> minhash signature -> banded LSH buckets ->
                  candidate pairs -> exact-Jaccard verification
- simhash:        64-bit simhash + banded hamming-neighbor candidates
- ngram_jaccard:  EXACT Jaccard via an inverted shingle index (full
                  recall; the corpus-shuffle-priced complement to minhash)

Shapes are designed for the 100 TB case: every per-doc computation is a
stateless ``map_batches``; the wide steps are groupbys on uniformly-
distributed hash keys (content hash / band hash / pair hash), so no
skew; near-dup verification is fully distributed — candidate pairs are
deduped by hash-partitioned unique and their shingle sets attached by
uniform partition reduces (``rayfts/ops/pjoin.py`` — the repo is
``Dataset.join``-free end to end), so neither pairs nor texts ever
materialize on the driver; exact-dedup row recovery picks broadcast
semi-join vs a partitioned reduce by kept-set size.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from rayfts.ops.pjoin import _mix_mod, semi_join_partitioned
from rayfts.ops.textstats import _token_hashes, _tokens

# -- exact -----------------------------------------------------------------


def add_sha_batch(batch: pa.Table, col: str) -> pa.Table:
    # NULL is its own group, distinct from "" (SQL GROUP BY semantics):
    # a sentinel prefix that cannot appear in utf-8 text keeps them apart
    shas = [
        hashlib.sha256(b"\x00NULL" if v is None else str(v).encode()).hexdigest()
        for v in batch[col].to_pylist()
    ]
    return batch.append_column("__sha", pa.array(shas, type=pa.string()))


def _combine_min_per_sha(batch: pa.Table, id_col: str) -> pa.Table:
    """Per-batch combiner: keep the min-id row per sha WITHIN the batch —
    vectorized (sort + run-boundary take), no Python loop. Shrinks the
    shuffle to at most one row per (batch, distinct sha)."""
    order = pc.sort_indices(
        batch, sort_keys=[("__sha", "ascending"), (id_col, "ascending")]
    )
    sorted_b = batch.take(order)
    shas = sorted_b["__sha"].to_numpy(zero_copy_only=False)
    first = np.empty(len(shas), dtype=bool)
    if len(shas):
        first[0] = True
        first[1:] = shas[1:] != shas[:-1]
    return sorted_b.filter(pa.array(first))


def exact_dedup_ids(ds, col: str = "text", id_col: str = "doc_id"):
    """Scalable exact dedup: per-batch vectorized combiner, then a NATIVE
    ``groupby(sha).min(id)`` aggregate (no per-group Python call — at
    10^12 rows a map_groups callback per distinct document would dominate).
    Returns a Dataset of kept ``id_col`` values (one per distinct content).
    Uniform sha keys -> skew-free shuffle."""
    return (
        ds.map_batches(lambda b: add_sha_batch(b, col), batch_format="pyarrow")
        .map_batches(lambda b: _combine_min_per_sha(b, id_col), batch_format="pyarrow")
        .select_columns(["__sha", id_col])
        .groupby("__sha")
        .min(id_col)
        .select_columns([f"min({id_col})"])
        .rename_columns({f"min({id_col})": id_col})
    )


def exact_dedup(
    ds,
    col: str = "text",
    id_col: str = "doc_id",
    broadcast: bool | None = None,
    broadcast_limit: int = 5_000_000,
    num_partitions: int | None = None,
):
    """Keep the smallest-``id_col`` FULL row per distinct ``col`` value.

    Kept-id resolution is the scalable :func:`exact_dedup_ids` aggregate.
    Row recovery picks between two plans:

    - **broadcast semi-join** (kept set small): ``ray.put`` the sorted id
      array once, probe per batch with ``searchsorted`` — zero shuffle of
      the corpus;
    - **partitioned reduce** (default above ``broadcast_limit`` kept
      ids): the classic hash-partition-per-group-first plan — per-batch
      combiner, one sort-based ``groupby`` exchange on a uniform
      sha-partition key, min-id row kept per sha inside each partition
      group (vectorized run-boundary take, no per-group Python). One
      corpus scan, one exchange, no ``Dataset.join`` (Ray 2.49's
      hash-shuffle join aggregators are the repo's only flaky operator;
      see ``rayfts/ops/pjoin.py``).

    ``broadcast=None`` streams the kept ids once and switches to the
    partitioned plan only if the stream exceeds ``broadcast_limit`` —
    the common path stays one pass."""
    kept = exact_dedup_ids(ds, col, id_col)
    if broadcast is False:
        return _exact_dedup_partitioned(ds, col, id_col, num_partitions)

    chunks: list[np.ndarray] = []
    total = 0
    for b in kept.iter_batches(batch_format="pyarrow"):
        arr = b[id_col].to_numpy(zero_copy_only=False)
        chunks.append(arr)
        total += arr.size
        if broadcast is None and total > broadcast_limit:
            return _exact_dedup_partitioned(ds, col, id_col, num_partitions)
    ids = np.sort(np.concatenate(chunks or [np.empty(0, np.int64)]))
    ids_ref = ray.put(ids)

    def pick(batch: pa.Table) -> pa.Table:
        wanted = ray.get(ids_ref)
        vals = batch[id_col].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(wanted, vals)
        pos[pos >= wanted.size] = 0
        mask = wanted[pos] == vals if wanted.size else np.zeros(len(vals), bool)
        return batch.filter(pa.array(mask))

    return ds.map_batches(pick, batch_format="pyarrow")


def _exact_dedup_partitioned(ds, col: str, id_col: str,
                             num_partitions: int | None = None):
    """Hash-partition + per-group-first exact dedup: sha the content,
    shrink with the per-batch combiner, tag a uniform partition id from
    the sha prefix, then ONE sort-based ``groupby`` exchange whose
    reduce keeps the min-``id_col`` FULL row per sha (vectorized sort +
    run-boundary take per partition group). Join-free by design; raise
    ``num_partitions`` with cluster size to bound per-reduce memory."""
    num_parts = num_partitions or 64

    def tag(b: pa.Table) -> pa.Table:
        parts = [int(s[:15], 16) % num_parts
                 for s in b["__sha"].to_numpy(zero_copy_only=False)]
        return b.append_column("__pp", pa.array(np.asarray(parts, np.int32)))

    def keep_min(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return g.drop_columns(["__sha", "__pp"])
        return _combine_min_per_sha(g, id_col).drop_columns(["__sha", "__pp"])

    return (
        ds.map_batches(lambda b: add_sha_batch(b, col), batch_format="pyarrow")
        .map_batches(lambda b: _combine_min_per_sha(b, id_col), batch_format="pyarrow")
        .map_batches(tag, batch_format="pyarrow")
        .groupby("__pp")
        .map_groups(keep_min, batch_format="pyarrow")
    )


# -- minhash LSH -----------------------------------------------------------

_MERSENNE = np.uint64((1 << 61) - 1)


def _perm_params(num_perm: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


_FNV_OFFSET = np.uint64(14695981039346656037)
_FNV_PRIME = np.uint64(1099511628211)
_POLY_BASE = np.uint64(1099511628211)


def _poly_powers(k: int) -> np.ndarray:
    """Descending power vector [base^(k-1) ... base^0] mod 2^64 — the
    single definition behind every rolling-window hash in this package
    (shingles and short-doc windows)."""
    with np.errstate(over="ignore"):
        powers = np.empty(k, dtype=np.uint64)
        powers[0] = np.uint64(1)
        for i in range(1, k):
            powers[i] = powers[i - 1] * _POLY_BASE
    return powers[::-1].copy()


def _poly_shingles(h: np.ndarray, k: int) -> np.ndarray:
    """Polynomial hash of every k-token window of a token-hash array
    (vectorized, mod 2^64); <k tokens hash as one window over all."""
    if h.size == 0:
        return np.empty(0, dtype=np.uint64)
    kk = min(k, h.size)
    powers = _poly_powers(kk)
    with np.errstate(over="ignore"):
        win = np.lib.stride_tricks.sliding_window_view(h, kk)
        return (win * powers).sum(axis=1, dtype=np.uint64)


def shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Hashes of token k-gram shingles (uint64, unique)."""
    return np.unique(_poly_shingles(_token_hashes(_tokens(text)), k))


def minhash_signature(sh: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """num_perm-wide minhash of a shingle-hash set (universal hashing
    (a*x+b) mod 2^61-1, vectorized num_perm x n)."""
    if sh.size == 0:
        return np.full(a.size, np.iinfo(np.uint64).max, dtype=np.uint64)
    with np.errstate(over="ignore"):
        prod = a[:, None] * sh[None, :] + b[:, None]
    prod = (prod & _MERSENNE) + (prod >> np.uint64(61))
    prod = np.where(prod >= _MERSENNE, prod - _MERSENNE, prod)
    return prod.min(axis=1)


class _ShingleStage:
    """Shared vectorized shingle machinery for the dedup stages
    :class:`MinHashBands` and :class:`ShingleExplode`: Arrow RE2
    tokenization, per-UNIQUE-token md5 (bounded cache), one global
    sliding-window rolling hash over the doc-major token stream. Per-doc
    output equals :func:`shingle_hashes` modulo uniqueness
    (property-tested)."""

    # Per-actor token-hash cache cap: one entry per distinct surface token
    # ever seen would be a slow OOM on a 100 TB stream with long-lived
    # actors. Clear-on-overflow keeps the Zipf head permanently warm in
    # practice (the head re-fills within one batch after a clear).
    CACHE_CAP = 1_000_000

    def __init__(self, k: int = 3, cache_cap: int | None = None):
        self.k = k
        self._uniq_cache: dict[str, int] = {}
        self._cache_cap = self.CACHE_CAP if cache_cap is None else cache_cap

    def _hashed_token_stream(
        self, texts: pa.ChunkedArray | pa.Array
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """(tok_h, doc_idx, n_docs): the doc-major stream of per-token
        md5 hashes (empties dropped) BEFORE any windowing."""
        import pyarrow.compute as pc2

        arr = texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts
        arr = pc2.fill_null(arr, "")
        n = len(arr)
        sp = pc2.split_pattern_regex(arr, pattern=r"[^\p{L}\p{N}]+")
        counts = pc2.list_value_length(sp).to_numpy().astype(np.int64)
        flat = pc2.utf8_lower(pc2.list_flatten(sp))
        denc = flat.dictionary_encode()
        ind = denc.indices.to_numpy().astype(np.int64)
        uniq = denc.dictionary.to_pylist()
        cache = self._uniq_cache
        cap = self._cache_cap
        if len(cache) >= cap:
            cache.clear()  # bounded per-actor memory (see CACHE_CAP)
        uh = np.empty(len(uniq), dtype=np.uint64)
        for i, t in enumerate(uniq):
            v = cache.get(t)
            if v is None:
                v = int.from_bytes(
                    hashlib.md5(t.encode("utf-8")).digest()[:8], "big")
                if len(cache) < cap:
                    cache[t] = v
            uh[i] = v
        nonempty = np.array([len(t) > 0 for t in uniq], dtype=bool)

        tok_h = uh[ind]
        keep = nonempty[ind]
        doc_all = np.repeat(np.arange(n, dtype=np.int64), counts)
        return tok_h[keep], doc_all[keep], n

    def _shingle_stream(
        self, texts: pa.ChunkedArray | pa.Array
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """(sh, sh_doc, n_docs): every k-window rolling hash with its doc
        index, doc-major sorted; docs with no tokens contribute nothing;
        docs shorter than k hash as one whole-doc window."""
        tok_h, doc_idx, n = self._hashed_token_stream(texts)
        if tok_h.size == 0:
            return np.empty(0, np.uint64), np.empty(0, np.int64), n
        tok_counts = np.bincount(doc_idx, minlength=n)
        # windows that stay inside one doc: ONE global sliding window over
        # the doc-major token stream + a validity mask (window start's doc
        # == window end's doc); docs shorter than k get one whole-doc
        # window per length group — no per-doc Python loop
        k = self.k
        powers = _poly_powers(k)  # descending: [base^(k-1) ... 1]
        sh_parts: list[np.ndarray] = []
        shdoc_parts: list[np.ndarray] = []
        if tok_h.size >= k:
            win = np.lib.stride_tricks.sliding_window_view(tok_h, k)
            with np.errstate(over="ignore"):
                h_all = (win * powers).sum(axis=1, dtype=np.uint64)
            w_docs = doc_idx[: doc_idx.size - k + 1]
            valid = w_docs == doc_idx[k - 1:]
            sh_parts.append(h_all[valid])
            shdoc_parts.append(w_docs[valid])
        starts = np.concatenate([[0], np.cumsum(tok_counts)[:-1]])
        for l in range(1, k):
            docs_l = np.flatnonzero(tok_counts == l)
            if docs_l.size == 0:
                continue
            idx = starts[docs_l][:, None] + np.arange(l)[None, :]
            with np.errstate(over="ignore"):
                h_l = (tok_h[idx] * powers[k - l:]).sum(axis=1, dtype=np.uint64)
            sh_parts.append(h_l)
            shdoc_parts.append(docs_l)
        sh = np.concatenate(sh_parts)
        sh_doc = np.concatenate(shdoc_parts)
        order = np.argsort(sh_doc, kind="stable")  # doc-major
        return sh[order], sh_doc[order], n

    def _unique_shingles(
        self, texts: pa.ChunkedArray | pa.Array
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """(uniq_sh, counts_per_doc, n_docs): per-doc UNIQUE shingle
        hashes (doc-major, ascending within doc) — equals
        ``shingle_hashes(text, k)`` per doc."""
        sh, sh_doc, n = self._shingle_stream(texts)
        if sh.size == 0:
            return sh, np.zeros(n, np.int64), n
        order = np.lexsort((sh, sh_doc))
        s, d = sh[order], sh_doc[order]
        keep = np.concatenate([[True], (s[1:] != s[:-1]) | (d[1:] != d[:-1])])
        s, d = s[keep], d[keep]
        return s, np.bincount(d, minlength=n).astype(np.int64), n


class MinHashBands(_ShingleStage):
    """Actor-pool stage: (docs) -> (band_id, band_hash, doc_id) LSH rows.

    Fully vectorized per batch: Arrow RE2 tokenization, per-UNIQUE-token
    md5, rolling polynomial shingles, per-permutation ``minimum.reduceat``
    signatures, FNV band folding. Permutation params built once per actor.
    """

    def __init__(self, col: str = "text", id_col: str = "doc_id",
                 num_perm: int = 64, bands: int = 16, k: int = 3, seed: int = 42,
                 cache_cap: int | None = None):
        assert num_perm % bands == 0
        super().__init__(k=k, cache_cap=cache_cap)
        self.col = col
        self.id_col = id_col
        self.bands = bands
        self.a, self.b = _perm_params(num_perm, seed)

    def _signatures(self, texts: pa.ChunkedArray | pa.Array) -> np.ndarray:
        sh, sh_doc, n = self._shingle_stream(texts)
        P = self.a.size
        MAX = np.iinfo(np.uint64).max
        sig = np.full((n, P), MAX, dtype=np.uint64)
        if sh.size == 0:
            return sig
        run_starts = np.flatnonzero(np.concatenate([[True], sh_doc[1:] != sh_doc[:-1]]))
        run_docs = sh_doc[run_starts]
        with np.errstate(over="ignore"):
            for p in range(P):
                v = self.a[p] * sh + self.b[p]
                v = (v & _MERSENNE) + (v >> np.uint64(61))
                v = np.where(v >= _MERSENNE, v - _MERSENNE, v)
                sig[run_docs, p] = np.minimum.reduceat(v, run_starts)
        return sig

    def __call__(self, batch: pa.Table) -> pa.Table:
        sig = self._signatures(batch[self.col])
        n, P = sig.shape
        bands = self.bands
        r = P // bands
        # FNV-fold each band's r signature values -> (n, bands) band hashes
        bh = np.full((n, bands), _FNV_OFFSET, dtype=np.uint64)
        band_vals = sig.reshape(n, bands, r)
        with np.errstate(over="ignore"):
            for j in range(r):
                bh ^= band_vals[:, :, j]
                bh *= _FNV_PRIME
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        return pa.table({
            "band_id": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
            "band_hash": pa.array((bh >> np.uint64(1)).astype(np.int64).ravel()),
            self.id_col: pa.array(np.repeat(ids, bands)),
        })


class ShingleExplode(_ShingleStage):
    """Actor-pool stage for the exact-Jaccard inverted shingle index:
    (docs) -> one row per (doc, UNIQUE shingle) carrying the doc's full
    set size (``nsh``) and a uniform shingle partition key (``__sp``).
    Per-doc shingle sets equal :func:`shingle_hashes` (property-tested);
    the whole batch is one vectorized pass — no per-row Python."""

    def __init__(self, col: str = "text", id_col: str = "doc_id", k: int = 3,
                 num_parts: int = 64, cache_cap: int | None = None):
        super().__init__(k=k, cache_cap=cache_cap)
        self.col = col
        self.id_col = id_col
        self.num_parts = num_parts

    def __call__(self, batch: pa.Table) -> pa.Table:
        s, counts, _n = self._unique_shingles(batch[self.col])
        ids = batch[self.id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "sh": pa.array(s.astype(np.int64)),
            self.id_col: pa.array(np.repeat(ids, counts), type=pa.int64()),
            "nsh": pa.array(np.repeat(counts, counts), type=pa.int64()),
            "__sp": pa.array((s % np.uint64(self.num_parts)).astype(np.int32)),
        })


def candidate_pairs_partition(part: pa.Table, id_col: str = "doc_id") -> pa.Table:
    """Vectorized bucket pairing over one hash PARTITION of band rows (many
    buckets per call — never one Python call per bucket): sort by (band_id,
    band_hash), detect equal-key runs, emit pairwise combinations only for
    the runs with >= 2 members (rare under uniform hashing). Degenerate
    buckets are capped at 200 members so one pathological hash cannot emit
    O(n^2) pairs (documented truncation)."""
    if part.num_rows == 0:
        return pa.table({"id_a": pa.array([], type=pa.int64()),
                         "id_b": pa.array([], type=pa.int64())})
    order = pc.sort_indices(
        part, sort_keys=[("band_id", "ascending"), ("band_hash", "ascending"),
                         (id_col, "ascending")]
    )
    t = part.take(order)
    bid = t["band_id"].to_numpy()
    bh = t["band_hash"].to_numpy()
    ids = t[id_col].to_numpy(zero_copy_only=False)
    new_run = np.concatenate([[True], (bid[1:] != bid[:-1]) | (bh[1:] != bh[:-1])])
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], len(ids))
    a_out, b_out = [], []
    for s, e in zip(starts[ends - starts >= 2], ends[ends - starts >= 2]):
        run = ids[s:min(e, s + 200)]
        iu, ju = np.triu_indices(run.size, k=1)
        a_out.append(run[iu])
        b_out.append(run[ju])
    if not a_out:
        return pa.table({"id_a": pa.array([], type=pa.int64()),
                         "id_b": pa.array([], type=pa.int64())})
    return pa.table({"id_a": pa.array(np.concatenate(a_out), type=pa.int64()),
                     "id_b": pa.array(np.concatenate(b_out), type=pa.int64())})


def exact_jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    sa, sb = shingle_hashes(text_a, k), shingle_hashes(text_b, k)
    if sa.size == 0 and sb.size == 0:
        return 1.0
    inter = np.intersect1d(sa, sb, assume_unique=True).size
    union = sa.size + sb.size - inter
    return inter / union if union else 0.0


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

def dedup_pairs_partitioned(pairs_ds, num_parts: int = 64, sort_cols=("id_a", "id_b")):
    """Globally drop duplicate (id_a, id_b) rows WITHOUT driver collection:
    hash-partition on the pair key (uniform — the ids are arbitrary but the
    golden-ratio mix decorrelates them), then a vectorized run-boundary
    unique inside each partition. Ray-native replacement for the former
    driver-side ``to_pandas().drop_duplicates()``."""

    def tag(b: pa.Table) -> pa.Table:
        a = b["id_a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bb = b["id_b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            h = (a * _GOLDEN) ^ (bb * _GOLDEN >> np.uint64(32))
        return b.append_column("__pp", pa.array((h % np.uint64(num_parts)).astype(np.int32)))

    def uniq(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return g.drop_columns(["__pp"])
        order = pc.sort_indices(g, sort_keys=[(c, "ascending") for c in sort_cols])
        t = g.take(order)
        a = t["id_a"].to_numpy(zero_copy_only=False)
        bb = t["id_b"].to_numpy(zero_copy_only=False)
        first = np.concatenate([[True], (a[1:] != a[:-1]) | (bb[1:] != bb[:-1])])
        return t.filter(pa.array(first)).drop_columns(["__pp"])

    return (
        pairs_ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__pp")
        .map_groups(uniq, batch_format="pyarrow")
    )


def _needed_ids_ds(pairs_ds, num_parts: int = 64):
    """Distinct ids referenced by any pair side, as a Dataset (partition-
    local unique -> tiny groupby-partition global unique)."""

    def explode(b: pa.Table) -> pa.Table:
        ids = np.unique(np.concatenate([
            b["id_a"].to_numpy(zero_copy_only=False),
            b["id_b"].to_numpy(zero_copy_only=False),
        ])) if b.num_rows else np.empty(0, np.int64)
        t = pa.table({"need_id": pa.array(ids, type=pa.int64())})
        return t.append_column(
            "__pp", pa.array((ids.astype(np.uint64) % np.uint64(num_parts)).astype(np.int32)))

    def uniq(g: pa.Table) -> pa.Table:
        ids = np.unique(g["need_id"].to_numpy(zero_copy_only=False))
        return pa.table({"need_id": pa.array(ids, type=pa.int64())})

    return (
        pairs_ds.map_batches(explode, batch_format="pyarrow")
        .groupby("__pp")
        .map_groups(uniq, batch_format="pyarrow")
    )


def _empty_pairs_dataset(value_col: str, value_type=pa.float64()):
    return ray.data.from_arrow(pa.table({
        "id_a": pa.array([], type=pa.int64()),
        "id_b": pa.array([], type=pa.int64()),
        value_col: pa.array([], type=value_type),
    }))


def _jaccard_from_blobs(ba: bytes | None, bb: bytes | None) -> float:
    sa = np.frombuffer(ba or b"", dtype=np.uint64)
    sb = np.frombuffer(bb or b"", dtype=np.uint64)
    if sa.size == 0 and sb.size == 0:
        return 1.0
    inter = np.intersect1d(sa, sb, assume_unique=True).size
    union = sa.size + sb.size - inter
    return inter / union if union else 0.0


_BANDS_WORKER_CACHE: dict = {}


def _bands_task_fn(batch: pa.Table, col: str, id_col: str, num_perm: int,
                   bands: int, k: int) -> pa.Table:
    """Task-pool wrapper for :class:`MinHashBands`. The stage's only
    state is a token-hash CACHE (pure performance, no correctness), so
    it does not need an actor pool: Ray tasks reuse long-lived worker
    processes, and this module-global keeps one warm stage per worker —
    the same cache locality with ZERO actor-pool cold-start (the eager
    fixed pool cost ~2s wall at bench scale and paid actor startup on
    every call at cluster scale)."""
    key = (col, id_col, num_perm, bands, k)
    st = _BANDS_WORKER_CACHE.get(key)
    if st is None:
        st = _BANDS_WORKER_CACHE[key] = MinHashBands(
            col=col, id_col=id_col, num_perm=num_perm, bands=bands, k=k)
    return st(batch)


def minhash_dedup_pairs(
    ds,
    col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    k: int = 3,
    threshold: float = 0.7,
    concurrency: int | None = None,
    num_partitions: int | None = None,
    broadcast: bool | None = None,
    # pair-count proxy for the broadcast payload: candidate blobs are
    # roughly text-sized, so ~250k pairs keeps the transient driver-side
    # blob map in the low hundreds of MB; beyond it the join plan runs
    broadcast_limit: int = 250_000,
    # hard byte budget for the broadcast blob map: pair count alone does
    # not bound blob size (250k pairs over very long documents can still
    # exhaust the driver), so accumulation is metered and falls over to
    # the partitioned-reduce plan mid-build if the budget is exceeded
    broadcast_bytes_budget: int = 512 << 20,
):
    """Full near-dup pipeline -> Dataset(id_a, id_b, jaccard):

    1. shingle/minhash/banding: actor-pool ``map_batches`` (vectorized);
    2. bucket pairing: ``groupby`` on a uniform band-hash partition key;
    3. global pair dedup: hash-partitioned run-unique (Dataset in/out);
    4-5. exact-Jaccard verification on the candidates, by one of two
       auto-selected plans (``broadcast=None`` picks by pair count):

       - **broadcast** (pair count <= ``broadcast_limit``, the common
         case — LSH keeps candidates tiny): the needed-id array is
         ``ray.put`` once; one stateless corpus pass computes candidate
         shingle blobs; verification maps over the pair Dataset with the
         broadcast blob map. No shuffle, no join actors.
       - **partitioned reduces** (huge candidate sets): candidate ids
         are deduped distributively, candidate texts recovered by a
         partitioned semi-join (``rayfts/ops/pjoin.py``), and each
         side's blob attached by a two-exchange pair-halves reduce
         (:func:`_verify_pairs_partitioned`); nothing touches the
         driver and no ``Dataset.join`` runs. The corpus crosses the
         shuffle once (id+text columns only).
    """
    # Task pool (not actors): _bands_task_fn keeps a warm per-worker
    # stage, so there is no actor cold-start and the streaming executor
    # sizes parallelism itself; `concurrency` caps it when given.
    band_rows = ds.map_batches(
        _bands_task_fn,
        fn_kwargs={"col": col, "id_col": id_col,
                   "num_perm": num_perm, "bands": bands, "k": k},
        batch_format="pyarrow",
        **({"concurrency": concurrency} if concurrency is not None else {}),
    )

    def tag_part(b: pa.Table) -> pa.Table:
        h = (b["band_hash"].to_numpy().astype(np.uint64)
             * _GOLDEN
             + b["band_id"].to_numpy().astype(np.uint64))
        return b.append_column(
            "part", pa.array((h % np.uint64(64)).astype(np.int32)))

    raw_pairs = (
        band_rows.map_batches(tag_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(lambda g: candidate_pairs_partition(g, id_col), batch_format="pyarrow")
    )
    # materialize the (small) deduped pair set: it feeds several downstream
    # consumers and must not recompute the LSH
    pairs = dedup_pairs_partitioned(raw_pairs).materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        return _empty_pairs_dataset("jaccard")
    if broadcast is None:
        broadcast = n_pairs <= broadcast_limit

    def shingle_blobs(b: pa.Table) -> pa.Table:
        texts = b[col].to_pylist()
        blobs = [shingle_hashes("" if t is None else t, k).tobytes() for t in texts]
        return pa.table({
            id_col: b[id_col],
            "__sh": pa.array(blobs, type=pa.large_binary()),
        })

    if broadcast:
        need = np.unique(np.concatenate([
            np.concatenate([
                b["id_a"].to_numpy(zero_copy_only=False),
                b["id_b"].to_numpy(zero_copy_only=False),
            ])
            for b in pairs.iter_batches(batch_format="pyarrow")
        ]))
        need_ref = ray.put(need)

        def pick_blobs(batch: pa.Table) -> pa.Table:
            wanted = ray.get(need_ref)
            vals = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            pos = np.searchsorted(wanted, vals)
            pos[pos >= wanted.size] = 0
            mask = wanted[pos] == vals if wanted.size else np.zeros(vals.size, bool)
            return shingle_blobs(batch.filter(pa.array(mask)))

        cand_sh = ds.select_columns([id_col, col]).map_batches(
            pick_blobs, batch_format="pyarrow"
        )
        blob_map: dict[int, bytes] | None = {}
        blob_bytes = 0
        for b in cand_sh.iter_batches(batch_format="pyarrow"):
            blob_bytes += int(b["__sh"].nbytes)
            if blob_bytes > broadcast_bytes_budget:
                # long documents blew the byte budget the pair count could
                # not see — abandon broadcast, run the partitioned joins
                blob_map = None
                break
            blob_map.update(zip(b[id_col].to_pylist(), b["__sh"].to_pylist()))
        broadcast = blob_map is not None

    if broadcast:
        blobs_ref = ray.put(blob_map)

        def verify_bc(b: pa.Table) -> pa.Table:
            blobs = ray.get(blobs_ref)
            a_ids = b["id_a"].to_pylist()
            b_ids = b["id_b"].to_pylist()
            jac = np.array([
                _jaccard_from_blobs(blobs.get(a), blobs.get(bb))
                for a, bb in zip(a_ids, b_ids)
            ])
            keep = jac >= threshold
            return pa.table({
                "id_a": pa.array(np.asarray(a_ids, dtype=np.int64)[keep]),
                "id_b": pa.array(np.asarray(b_ids, dtype=np.int64)[keep]),
                "jaccard": pa.array(np.round(jac[keep], 6), type=pa.float64()),
            })

        return pairs.map_batches(verify_bc, batch_format="pyarrow")

    # Partitioned fall-over, entirely join-free (see rayfts/ops/pjoin.py):
    # 1. candidate texts via a partitioned semi-join of the corpus against
    #    the (distinct) pair-referenced ids — one corpus exchange, exactly
    #    what the former hash join moved;
    # 2. blobs attached to pair halves and verified by two uniform
    #    sort-based partition reduces.
    num_parts = num_partitions or 64
    cand = semi_join_partitioned(
        ds.select_columns([id_col, col]),
        _needed_ids_ds(pairs),
        left_key=id_col,
        right_key="need_id",
        left_schema={id_col: pa.int64(), col: pa.large_string()},
        num_parts=num_parts,
    )
    cand_sh = cand.map_batches(shingle_blobs, batch_format="pyarrow")
    return _verify_pairs_partitioned(pairs, cand_sh, id_col, threshold,
                                     num_parts)


def _verify_pairs_partitioned(pairs, blobs, id_col: str, threshold: float,
                              num_parts: int):
    """Exact-Jaccard verification of candidate pairs with the blob table
    attached by partition reduces instead of hash joins:

    - exchange 1 (keyed by each half's referenced id): pair HALF rows
      ``(ref, mate, is_a)`` union the blob rows ``(id, __sh)``; inside
      each partition group a vectorized ``searchsorted`` attaches every
      half's blob;
    - exchange 2 (keyed by the pair): the two halves of each pair
      reunite; a run-boundary scan pairs them and the Jaccard filter
      emits ``(id_a, id_b, jaccard)``.

    Both exchanges are uniform (golden-mixed ids / pair keys), move
    blob-sized payloads exactly once, and run on the sort-based groupby
    path — no ``HashShuffleAggregator`` anywhere."""

    def halves(b: pa.Table) -> pa.Table:
        a = b["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        bb = b["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        ref = np.concatenate([a, bb])
        mate = np.concatenate([bb, a])
        is_a = np.concatenate(
            [np.ones(a.size, np.int8), np.zeros(bb.size, np.int8)])
        return pa.table({
            "ref": pa.array(ref),
            "mate": pa.array(mate),
            "is_a": pa.array(is_a),
            "__sh": pa.nulls(ref.size, pa.large_binary()),
            "src": pa.array(np.zeros(ref.size, np.int8)),
            "__pp": pa.array(_mix_mod(ref, num_parts)),
        })

    def blob_rows(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sh = b["__sh"]
        if isinstance(sh, pa.ChunkedArray):
            sh = sh.combine_chunks()
        return pa.table({
            "ref": pa.array(ids),
            "mate": pa.nulls(ids.size, pa.int64()),
            "is_a": pa.nulls(ids.size, pa.int8()),
            "__sh": sh.cast(pa.large_binary()),
            "src": pa.array(np.ones(ids.size, np.int8)),
            "__pp": pa.array(_mix_mod(ids, num_parts)),
        })

    def _empty_attached() -> pa.Table:
        return pa.table({
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "is_a": pa.array([], pa.int8()),
            "__sh": pa.array([], pa.large_binary()),
            "__pp2": pa.array([], pa.int32()),
        })

    def attach(g: pa.Table) -> pa.Table:
        src = g["src"].to_numpy(zero_copy_only=False)
        bl = g.filter(pa.array(src == 1))
        hv = g.filter(pa.array(src == 0))
        if hv.num_rows == 0 or bl.num_rows == 0:
            return _empty_attached()
        bid = bl["ref"].to_numpy(zero_copy_only=False)
        order = np.argsort(bid, kind="stable")
        bid_sorted = bid[order]
        refs = hv["ref"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(bid_sorted, refs)
        pos[pos >= bid_sorted.size] = 0
        m = bid_sorted[pos] == refs
        if not m.any():
            return _empty_attached()
        hv = hv.filter(pa.array(m))
        sh_arr = bl["__sh"]
        if isinstance(sh_arr, pa.ChunkedArray):
            sh_arr = sh_arr.combine_chunks()
        taken = sh_arr.take(pa.array(order[pos[m]]))
        is_a = hv["is_a"].to_numpy(zero_copy_only=False).astype(bool)
        ref = hv["ref"].to_numpy(zero_copy_only=False)
        mate = hv["mate"].to_numpy(zero_copy_only=False)
        id_a = np.where(is_a, ref, mate)
        id_b = np.where(is_a, mate, ref)
        with np.errstate(over="ignore"):
            pk = ((id_a.astype(np.uint64) * _GOLDEN)
                  ^ (id_b.astype(np.uint64) * _GOLDEN >> np.uint64(32)))
        return pa.table({
            "id_a": pa.array(id_a),
            "id_b": pa.array(id_b),
            "is_a": pa.array(is_a.astype(np.int8)),
            "__sh": taken,
            "__pp2": pa.array((pk % np.uint64(num_parts)).astype(np.int32)),
        })

    def _empty_pairs() -> pa.Table:
        return pa.table({
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64()),
        })

    def finish(g: pa.Table) -> pa.Table:
        if g.num_rows < 2:
            return _empty_pairs()
        order = pc.sort_indices(g, sort_keys=[
            ("id_a", "ascending"), ("id_b", "ascending"),
            ("is_a", "ascending")])
        t = g.take(order)
        a = t["id_a"].to_numpy(zero_copy_only=False)
        b2 = t["id_b"].to_numpy(zero_copy_only=False)
        same_next = np.zeros(a.size, bool)
        same_next[:-1] = (a[:-1] == a[1:]) & (b2[:-1] == b2[1:])
        start = np.flatnonzero(same_next)
        if start.size == 0:
            return _empty_pairs()
        sh = t["__sh"]
        if isinstance(sh, pa.ChunkedArray):
            sh = sh.combine_chunks()
        blobs_py = sh.to_pylist()
        jac = np.array([
            _jaccard_from_blobs(blobs_py[i], blobs_py[i + 1]) for i in start
        ])
        keep = jac >= threshold
        return pa.table({
            "id_a": pa.array(a[start][keep], type=pa.int64()),
            "id_b": pa.array(b2[start][keep], type=pa.int64()),
            "jaccard": pa.array(np.round(jac[keep], 6), type=pa.float64()),
        })

    half_rows = pairs.map_batches(halves, batch_format="pyarrow")
    blob_tagged = blobs.map_batches(blob_rows, batch_format="pyarrow")
    attached = (
        half_rows.union(blob_tagged)
        .groupby("__pp")
        .map_groups(attach, batch_format="pyarrow")
    )
    return attached.groupby("__pp2").map_groups(
        finish, batch_format="pyarrow")


# -- simhash ---------------------------------------------------------------


def simhash64(text: str) -> int:
    """Weighted 64-bit simhash over unigram token hashes."""
    toks = _tokens(text)
    if not toks:
        return 0
    uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
    h = _token_hashes(uniq.tolist())
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(np.int64)
    votes = ((bits * 2 - 1) * counts[:, None]).sum(axis=0)
    return int(((votes > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())


def simhash_batch(batch: pa.Table, col: str = "text") -> pa.Table:
    """Whole-column simhash: Arrow tokenize + per-UNIQUE-token md5, then
    64 bincount passes (one per bit) accumulate the weighted bit votes of
    every doc at once. Matches :func:`simhash64` per row exactly."""
    import pyarrow.compute as pc

    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    arr = pc.fill_null(arr, "")
    n = len(arr)
    sp = pc.split_pattern_regex(arr, pattern=r"[^\p{L}\p{N}]+")
    counts_all = pc.list_value_length(sp).to_numpy().astype(np.int64)
    flat = pc.utf8_lower(pc.list_flatten(sp))
    denc = flat.dictionary_encode()
    ind = denc.indices.to_numpy().astype(np.int64)
    uniq = denc.dictionary.to_pylist()
    uh = _token_hashes(uniq)
    nonempty_u = np.array([len(t) > 0 for t in uniq], dtype=bool)
    keep = nonempty_u[ind]
    tok_h = uh[ind][keep]
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts_all)[keep]
    votes = np.zeros((n, 64), dtype=np.int64)
    for b in range(64):
        bit = ((tok_h >> np.uint64(b)) & np.uint64(1)).astype(np.int64)
        votes[:, b] = np.bincount(doc_idx, weights=2 * bit - 1, minlength=n)
    vals = ((votes > 0).astype(np.uint64)
            << np.arange(64, dtype=np.uint64)[None, :]).sum(axis=1, dtype=np.uint64)
    vals[np.bincount(doc_idx, minlength=n) == 0] = 0
    with np.errstate(over="ignore"):
        shifted = (vals - np.uint64(1 << 63)).astype(np.int64)
    return batch.append_column(
        "simhash", pa.array(shifted)
    )  # shifted into signed range for Arrow


def simhash_near_dup_pairs(ds, col: str = "text", id_col: str = "doc_id",
                           max_hamming: int = 3,
                           max_bucket: int | None = 200,
                           pair_tile: int = 4_000_000):
    """Banded simhash near-dup: 4 x 16-bit bands; hamming<=3 guarantees at
    least one identical band (pigeonhole). Groupby per band bucket, then
    exact hamming verification on candidates.

    ``max_bucket`` truncates a band bucket to its ``max_bucket``
    smallest-id members before pairing — the web-scale guard: with 16-bit
    bands, random collisions alone make bucket size ~corpus/65536, so an
    uncapped bucket is quadratic. Pass ``None`` for exact recall when the
    corpus is known to be modest (the oracle-checked configuration);
    ``pair_tile`` bounds each pairing allocation either way."""
    hashed = ds.map_batches(lambda b: simhash_batch(b, col), batch_format="pyarrow")

    def bands(batch: pa.Table) -> pa.Table:
        # vectorized: 4 x 16-bit band rows per doc + partition tag
        n = batch.num_rows
        h = batch["simhash"].to_numpy().astype(np.int64).astype(np.uint64) + np.uint64(1 << 63)
        band_id = np.tile(np.arange(4, dtype=np.int32), n)
        band_hash = ((np.repeat(h, 4) >> (np.uint64(16) * band_id.astype(np.uint64)))
                     & np.uint64(0xFFFF)).astype(np.int64)
        part = ((band_hash.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
                 + band_id.astype(np.uint64)) % np.uint64(64)).astype(np.int32)
        return pa.table({
            "band_id": pa.array(band_id),
            "band_hash": pa.array(band_hash),
            id_col: pa.array(np.repeat(batch[id_col].to_numpy(zero_copy_only=False), 4)),
            "simhash": pa.array(np.repeat(batch["simhash"].to_numpy(), 4)),
            "part": pa.array(part),
        })

    def bucket_pairs_partition(part_t: pa.Table) -> pa.Table:
        # vectorized run detection over all buckets of one partition; exact
        # hamming verification only inside >=2-member runs (rare)
        empty = pa.table({"id_a": pa.array([], type=pa.int64()),
                          "id_b": pa.array([], type=pa.int64()),
                          "hamming": pa.array([], type=pa.int64())})
        if part_t.num_rows == 0:
            return empty
        order = pc.sort_indices(part_t, sort_keys=[
            ("band_id", "ascending"), ("band_hash", "ascending"), (id_col, "ascending")])
        t = part_t.take(order)
        bid = t["band_id"].to_numpy()
        bh = t["band_hash"].to_numpy()
        ids = t[id_col].to_numpy(zero_copy_only=False)
        sim = t["simhash"].to_numpy().astype(np.int64).astype(np.uint64)
        new_run = np.concatenate([[True], (bid[1:] != bid[:-1]) | (bh[1:] != bh[:-1])])
        starts = np.flatnonzero(new_run)
        ends = np.append(starts[1:], len(ids))
        a_out, b_out, d_out = [], [], []
        for s, e in zip(starts[ends - starts >= 2], ends[ends - starts >= 2]):
            if max_bucket is not None:
                e = min(e, s + max_bucket)  # documented truncation
            run_ids, run_sim = ids[s:e], sim[s:e]
            m = run_ids.size
            rows_per_tile = max(1, pair_tile // m)
            for i0 in range(0, m - 1, rows_per_tile):
                i1 = min(i0 + rows_per_tile, m - 1)
                r, c = np.nonzero(
                    np.arange(m)[None, :] > np.arange(i0, i1)[:, None])
                iu, ju = r + i0, c
                x = run_sim[iu] ^ run_sim[ju]
                ham = np.zeros(x.size, dtype=np.int64)
                while x.any():
                    ham += (x & np.uint64(1)).astype(np.int64)
                    x >>= np.uint64(1)
                keep = (ham <= max_hamming) & (run_ids[iu] != run_ids[ju])
                a_out.append(run_ids[iu][keep])
                b_out.append(run_ids[ju][keep])
                d_out.append(ham[keep])
        if not a_out:
            return empty
        return pa.table({"id_a": pa.array(np.concatenate(a_out), type=pa.int64()),
                         "id_b": pa.array(np.concatenate(b_out), type=pa.int64()),
                         "hamming": pa.array(np.concatenate(d_out), type=pa.int64())})

    raw_pairs = (
        hashed.map_batches(bands, batch_format="pyarrow")
        .groupby("part")
        .map_groups(bucket_pairs_partition, batch_format="pyarrow")
    )
    # Dataset in, Dataset out: dedup the cross-band duplicates with the
    # hash-partitioned unique (no driver collection); callers sort/take
    return dedup_pairs_partitioned(raw_pairs)


# -- exact n-gram Jaccard ---------------------------------------------------


def ngram_jaccard_pairs(
    ds,
    col: str = "text",
    id_col: str = "doc_id",
    k: int = 3,
    threshold: float = 0.5,
    max_shingle_df: int | None = 4096,
    num_parts: int = 64,
    pair_tile: int = 4_000_000,
    concurrency: int | tuple | None = None,
):
    """EXACT token-k-gram Jaccard near-dup -> Dataset(id_a, id_b, jaccard).

    Unlike minhash-LSH (probabilistic recall) this finds every pair with
    jaccard >= threshold, via an inverted shingle index — the same shape
    as the posting-list build:

    1. per-doc UNIQUE shingle hashes explode to (shingle, doc, set_size)
       rows (set size rides along so no size join is needed later);
    2. ``groupby`` on a uniform shingle-hash partition: co-occurring doc
       pairs per shingle (vectorized run pairing, one row per shared
       shingle);
    3. ``groupby`` on the pair partition: row count per pair IS the
       intersection size; jaccard = inter / (|A| + |B| - inter).

    ``max_shingle_df`` (default 4096; None = exact) skips stop-gram runs
    bigger than the cap — the documented web-scale tradeoff, where a
    shingle shared by 10^5 docs would emit 10^10 pair rows in one task;
    capped runs undercount intersections for pairs only co-occurring in
    ultra-common shingles. The finite DEFAULT bounds the worst single-run
    emission at ~cap^2/2 pairs (ADVICE r2: an uncapped stop-gram OOMs the
    worker on exactly the web corpora this op targets); pass ``None``
    only when exactness over a known-clean corpus is required.
    ``pair_tile`` additionally tiles each run's pair emission so no
    single allocation exceeds ~pair_tile rows.

    The explode stage is a ``ShingleExplode`` actor pool (vectorized
    Arrow tokenization + global sliding-window shingles, same machinery
    as MinHashBands) — not a per-row Python loop.

    Cost model: step 1 shuffles one row per (doc, unique shingle) — a
    corpus-sized all-to-all, the price of EXACT global Jaccard. Use
    :func:`minhash_dedup_pairs` as the cheap probabilistic screen and
    this op when completeness is required (or on minhash survivors).
    """

    def shingle_pairs(g: pa.Table) -> pa.Table:
        empty = pa.table({"id_a": pa.array([], type=pa.int64()),
                          "id_b": pa.array([], type=pa.int64()),
                          "na": pa.array([], type=pa.int64()),
                          "nb": pa.array([], type=pa.int64()),
                          "__pp": pa.array([], type=pa.int32())})
        if g.num_rows == 0:
            return empty
        order = pc.sort_indices(g, sort_keys=[("sh", "ascending"), (id_col, "ascending")])
        t = g.take(order)
        sh = t["sh"].to_numpy()
        ids = t[id_col].to_numpy(zero_copy_only=False)
        nsh = t["nsh"].to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.concatenate([[True], sh[1:] != sh[:-1]]))
        ends = np.append(starts[1:], len(sh))
        a_out, b_out, na_out, nb_out = [], [], [], []
        for s, e in zip(starts[ends - starts >= 2], ends[ends - starts >= 2]):
            if max_shingle_df is not None and e - s > max_shingle_df:
                continue  # stop-gram: documented truncation
            run_ids, run_n = ids[s:e], nsh[s:e]
            m = run_ids.size
            # tiled triu emission: rows i0..i1 against all j>i, so one
            # allocation never exceeds ~pair_tile pair rows even for runs
            # near the df cap
            rows_per_tile = max(1, pair_tile // m)
            for i0 in range(0, m - 1, rows_per_tile):
                i1 = min(i0 + rows_per_tile, m - 1)
                r, c = np.nonzero(
                    np.arange(m)[None, :] > np.arange(i0, i1)[:, None])
                iu, ju = r + i0, c
                a_out.append(run_ids[iu]); b_out.append(run_ids[ju])
                na_out.append(run_n[iu]); nb_out.append(run_n[ju])
        if not a_out:
            return empty
        a = np.concatenate(a_out); b = np.concatenate(b_out)
        with np.errstate(over="ignore"):
            h = (a.astype(np.uint64) * _GOLDEN) ^ (b.astype(np.uint64) * _GOLDEN >> np.uint64(32))
        return pa.table({
            "id_a": pa.array(a, type=pa.int64()),
            "id_b": pa.array(b, type=pa.int64()),
            "na": pa.array(np.concatenate(na_out), type=pa.int64()),
            "nb": pa.array(np.concatenate(nb_out), type=pa.int64()),
            "__pp": pa.array((h % np.uint64(num_parts)).astype(np.int32)),
        })

    def count_pairs(g: pa.Table) -> pa.Table:
        empty = pa.table({"id_a": pa.array([], type=pa.int64()),
                          "id_b": pa.array([], type=pa.int64()),
                          "jaccard": pa.array([], type=pa.float64())})
        if g.num_rows == 0:
            return empty
        order = pc.sort_indices(g, sort_keys=[("id_a", "ascending"), ("id_b", "ascending")])
        t = g.take(order)
        a = t["id_a"].to_numpy(zero_copy_only=False)
        b = t["id_b"].to_numpy(zero_copy_only=False)
        na = t["na"].to_numpy(zero_copy_only=False)
        nb = t["nb"].to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.concatenate(
            [[True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])]))
        ends = np.append(starts[1:], len(a))
        inter = (ends - starts).astype(np.float64)
        union = (na[starts] + nb[starts] - inter)
        jac = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
        keep = jac >= threshold
        return pa.table({
            "id_a": pa.array(a[starts][keep], type=pa.int64()),
            "id_b": pa.array(b[starts][keep], type=pa.int64()),
            "jaccard": pa.array(np.round(jac[keep], 6), type=pa.float64()),
        })

    from rayfts.ops._stagecache import call_cached

    # default = stateless task pool with a per-process instance cache
    # (no actor ramp-up); an int concurrency only CAPS task parallelism
    explode_kwargs = dict(batch_format="pyarrow", batch_size=4096)
    if concurrency is not None:
        explode_kwargs["concurrency"] = concurrency
    return (
        ds.map_batches(
            call_cached,
            fn_kwargs={"_cls": ShingleExplode, "col": col,
                       "id_col": id_col, "k": k, "num_parts": num_parts},
            **explode_kwargs,
        )
        .groupby("__sp")
        .map_groups(shingle_pairs, batch_format="pyarrow")
        .groupby("__pp")
        .map_groups(count_pairs, batch_format="pyarrow")
    )
