"""Deterministic sampling operators for training-data pipelines.

Random sampling at 100 TB must be (a) a stateless per-batch filter —
no shuffle, no driver round-trip, no RNG state shared across tasks —
and (b) reproducible: re-running the pipeline (or resuming a failed
partition) must keep exactly the same rows. Both follow from hashing a
stable row id instead of drawing random numbers: every task computes
``splitmix64(id XOR seed)`` independently and compares it to a fixed
threshold.

Operators:

- :func:`deterministic_sample` — uniform ``num/den`` rate sample, one
  vectorized ``map_batches`` filter, zero wide edges;
- :func:`stratified_sample_k` — exactly ``min(k, |group|)`` rows per
  group, chosen as the k SMALLEST id-hashes (a uniform draw without
  replacement); two-phase: a per-batch combiner truncates every group
  to k rows before the single uniform-hash exchange, so even a giant
  group crosses the shuffle as ``k × #batches`` rows.

splitmix64 is a public-domain mixer (Steele, Lea & Flood, "Fast
splittable pseudorandom number generators", OOPSLA 2014); its
arithmetic (add / xor-shift / two mod-2^64 multiplies) is exactly
reproducible in DuckDB HUGEINT SQL, which is what makes both samplers
hash-oracle-checkable.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x: np.ndarray, seed: int = 42) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 (mod-2^64 wrapping)."""
    with np.errstate(over="ignore"):
        z = x.astype(np.uint64) ^ np.uint64(seed)
        z = z + _SM_GAMMA
        z = (z ^ (z >> np.uint64(30))) * _SM_M1
        z = (z ^ (z >> np.uint64(27))) * _SM_M2
        return z ^ (z >> np.uint64(31))


def _seg_start_per_row(keys: np.ndarray) -> np.ndarray:
    """For key-sorted ``keys``, the index where each row's key segment
    starts (vectorized run detection)."""
    n = keys.size
    is_start = np.concatenate([[True], keys[1:] != keys[:-1]])
    starts = np.flatnonzero(is_start)
    return np.repeat(starts, np.diff(np.append(starts, n)))


def deterministic_sample(ds, num: int, den: int,
                         id_col: str = "doc_id", seed: int = 42):
    """Keep each row iff ``splitmix64(id ^ seed) < num/den * 2^64``.

    Exact integer threshold (no float rate), so the kept set is a pure
    function of (id, seed, num, den) — stable across runs, resumes,
    partitionings, and reproducible in SQL.
    """
    if not (0 <= num <= den) or den <= 0:
        raise ValueError("sample rate must satisfy 0 <= num <= den, den > 0")
    thr = (num << 64) // den  # floor((num/den) * 2^64), exact

    def pick(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = splitmix64(ids.view(np.uint64), seed)
        if thr >= 1 << 64:
            return batch
        return batch.filter(pa.array(h < np.uint64(thr)))

    return ds.map_batches(pick, batch_format="pyarrow")


def stratified_sample_k(ds, group_col: str, id_col: str = "doc_id",
                        k: int = 10, seed: int = 42, num_parts: int = 32):
    """Deterministic k-per-group sample ->
    Dataset(<group_col>, <id_col>) — the ``min(k, |group|)`` rows with
    the smallest ``splitmix64(id ^ seed)`` per group (uniform without
    replacement; ties on the 64-bit hash broken by id).

    Two-phase: a per-batch combiner truncates to k rows per
    (group, batch) BEFORE the exchange; the per-partition finalizer
    re-runs the identical pass.
    """
    import pandas as pd

    def schema_empty(with_part: bool, gtype) -> pa.Table:
        cols = {
            group_col: pa.array([], type=gtype),
            id_col: pa.array([], type=pa.int64()),
        }
        if with_part:
            cols["part"] = pa.array([], type=pa.int32())
        return pa.table(cols)

    def head_k(b: pa.Table, with_part: bool) -> pa.Table:
        gtype = (b.schema.field(group_col).type
                 if group_col in b.column_names else pa.string())
        if b.num_rows == 0 or group_col not in b.column_names:
            return schema_empty(with_part, gtype)
        denc = b[group_col].combine_chunks().dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        groups = np.asarray(denc.dictionary.to_pylist(), dtype=object)
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = splitmix64(ids.view(np.uint64), seed)
        order = np.lexsort((ids, h, codes))
        c = codes[order]
        rank = np.arange(c.size, dtype=np.int64) - _seg_start_per_row(c)
        kept = order[rank < k]
        out_arr = pa.array(groups[codes[kept]].tolist(), type=gtype)
        cols = {
            group_col: out_arr,
            id_col: pa.array(ids[kept], type=pa.int64()),
        }
        if with_part:
            # value-based hash for any comparable key type (non-string
            # keys cast through Arrow string first)
            if pa.types.is_string(gtype) or pa.types.is_large_string(gtype):
                hp = pd.util.hash_array(groups[codes[kept]])
            else:
                hp = pd.util.hash_array(
                    out_arr.cast(pa.string()).to_numpy(zero_copy_only=False))
            cols["part"] = pa.array((hp % np.uint64(num_parts)).astype(np.int32))
        return pa.table(cols)

    return (ds.map_batches(lambda b: head_k(b, True), batch_format="pyarrow")
            .groupby("part")
            .map_groups(lambda g: head_k(g.drop_columns(["part"]), False),
                        batch_format="pyarrow"))


def weighted_sample(ds, weight_col: str, num: int, den: int,
                    id_col: str = "doc_id", seed: int = 42):
    """Deterministic weighted Bernoulli sample: keep each row with
    probability ``min(1, w * num / den)`` where ``w`` is the row's
    non-negative integer weight (e.g. ``n_tokens`` for token-budget
    sampling, a quality score in integer points, ...). Same guarantees
    as :func:`deterministic_sample` — stateless vectorized filter, no
    wide edges, kept set a pure function of (id, w, seed, num, den).

    Exactness without 128-bit arrays: keep iff
    ``h < floor(w*num * 2^64 / den)``, computed per row as
    ``r*q0 + r*m // den`` with ``q0, m = divmod(2^64, den)`` and
    ``q, r = divmod(w*num, den)`` (`q >= 1` keeps unconditionally) —
    the algebraic identity makes every term fit uint64 for
    ``den < 2^31``, and DuckDB reproduces the same floor directly in
    HUGEINT, so the op is hash-oracle-checkable."""
    if num < 0 or den <= 0 or den >= 1 << 31:
        raise ValueError("need num >= 0 and 0 < den < 2^31")
    if den == 1:
        q0, m = 0, 0  # r is always 0; q = w*num decides alone (q0=2^64
        # would overflow uint64 — review finding)
    else:
        q0, m = divmod(1 << 64, den)

    def pick(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = splitmix64(ids.view(np.uint64), seed)
        w = batch[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if (w < 0).any():
            raise ValueError(f"negative weights in {weight_col}")
        if w.size and int(w.max()) * num > 1 << 62:
            # int64 product would wrap silently and diverge from the
            # HUGEINT oracle — refuse instead (review finding)
            raise ValueError(
                f"w*num overflows int64 (max weight {int(w.max())}, num {num})")
        wn = w * num
        q, r = np.divmod(wn, den)
        r = r.astype(np.uint64)
        with np.errstate(over="ignore"):
            thr = r * np.uint64(q0) + (r * np.uint64(m)) // np.uint64(den)
        keep = (q >= 1) | (h < thr)
        return batch.filter(pa.array(keep))

    return ds.map_batches(pick, batch_format="pyarrow")
