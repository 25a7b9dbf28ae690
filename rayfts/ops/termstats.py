"""Global term statistics via an explicit term-partitioned shuffle with
hot-term salting — the north star's "groupby-term shuffle" expressed as
its own pipeline (the index build itself partitions by *document*, which
is skew-free; this pipeline is the term-partitioned view used for
corpus analytics: df/cf tables, stop-word detection, vocabulary export).

Skew handling (SURVEY.md §4): tokenize emits PRE-AGGREGATED partials per
batch (term -> partial df/cf), already collapsing each stop word to ONE
row per batch before the shuffle. On top of that, terms are salted into
``term x salt`` sub-keys so that even a term appearing in every batch
spreads over ``salt_buckets`` reducers; a second, tiny groupby folds the
salted partials. Every row crossing the wide edge is a (term, salt,
partial_df, partial_cf) aggregate, never a raw posting.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from rayfts.analysis.analyzer import Analyzer


class TokenizePartials:
    """Actor-pool stage: analyzer built once per actor; emits per-batch
    partial term stats."""

    def __init__(self, col: str = "text", analyzer: str = "en_stem", salt_buckets: int = 1):
        self.col = col
        self.analyzer = Analyzer(analyzer)
        self.salt_buckets = salt_buckets
        self._salt = 0

    def __call__(self, batch: pa.Table) -> pa.Table:
        spec = self.analyzer.spec
        self._salt = (self._salt + 1) % self.salt_buckets
        if not spec.raw and spec.name != "whitespace":
            # vectorized: whole-column analysis, then bincounts
            codes, doc_idx, _pos, uniques, _counts = (
                self.analyzer.analyze_text_column(batch[self.col])
            )
            if codes.size == 0:
                terms, cf, df = [], np.empty(0, np.int64), np.empty(0, np.int64)
            else:
                nu = len(uniques)
                cf = np.bincount(codes, minlength=nu).astype(np.int64)
                fused = codes.astype(np.int64) * batch.num_rows + doc_idx
                pair_codes = np.unique(fused) // batch.num_rows
                df = np.bincount(pair_codes, minlength=nu).astype(np.int64)
                terms = list(uniques)
        else:
            df_acc: dict[str, int] = {}
            cf_acc: dict[str, int] = {}
            for text in batch[self.col].to_pylist():
                toks = self.analyzer.tokens(text)
                for t in toks:
                    cf_acc[t] = cf_acc.get(t, 0) + 1
                for t in set(toks):
                    df_acc[t] = df_acc.get(t, 0) + 1
            terms = sorted(cf_acc)
            cf = np.array([cf_acc[t] for t in terms], dtype=np.int64)
            df = np.array([df_acc[t] for t in terms], dtype=np.int64)
        return pa.table({
            "term": pa.array(terms, type=pa.string()),
            "salt": pa.array([self._salt] * len(terms), type=pa.int32()),
            "partial_df": pa.array(df, type=pa.int64()),
            "partial_cf": pa.array(cf, type=pa.int64()),
        })


def term_stats_ds(
    ds,
    col: str = "text",
    analyzer: str = "en_stem",
    salt_buckets: int = 1,
    concurrency: int | tuple | None = None,
):
    """Lazy Dataset of (term, df, cf) over the corpus. Two-level reduce:
    salted partials -> per-(term,salt) sums -> per-term sums. Stays
    distributed — consume with sort/limit/write, never a driver collect."""
    from rayfts.ops._stagecache import call_cached

    # default = stateless task pool with a per-process instance cache
    # (cheap constructor, warm stem cache; no actor ramp-up on a short
    # stage); pass an int concurrency only to CAP task parallelism
    stage_kwargs = dict(
        batch_format="pyarrow",
        batch_size=8192,  # wide batches = strong pre-aggregation (a term
        # appears once per batch row-wise; Zipf vocab grows sublinearly)
    )
    if concurrency is not None:
        stage_kwargs["concurrency"] = concurrency
    partials = ds.map_batches(
        call_cached,
        fn_kwargs={"_cls": TokenizePartials, "col": col,
                   "analyzer": analyzer, "salt_buckets": salt_buckets},
        **stage_kwargs,
    )
    # Reduce: hash-partition the partial rows on an int key (uniform by
    # construction -> skew-free even for stop words, whose partials are
    # already one row per batch), then ONE Arrow C++ group_by per
    # partition. This replaces Ray's generic string-key Aggregate, which
    # costs two orders of magnitude more per row. The salt column further
    # subdivides a term across reducers when salt_buckets > 1 (extreme
    # corpus sizes where even one-row-per-batch partials overload a key).
    if concurrency is not None:
        num_reducers = max(8, int(
            concurrency[1] if isinstance(concurrency, tuple) else concurrency))
    else:
        import ray

        try:
            num_reducers = max(8, int(ray.cluster_resources().get("CPU", 8)))
        except Exception:
            num_reducers = 8

    def fold(ds_in, df_col: str, cf_col: str, with_salt: bool):
        def tag(b: pa.Table) -> pa.Table:
            h = pd.util.hash_array(b["term"].to_numpy(zero_copy_only=False))
            if with_salt:
                h = h + b["salt"].to_numpy().astype(np.uint64)
            part = (h % num_reducers).astype(np.int32)
            return b.append_column("part", pa.array(part, type=pa.int32()))

        def reduce_part(g: pa.Table) -> pa.Table:
            agg = g.select(["term", df_col, cf_col]).group_by("term").aggregate(
                [(df_col, "sum"), (cf_col, "sum")]
            )
            return pa.table({  # name-keyed (group_by column order varies)
                "term": agg["term"],
                "df": agg[f"{df_col}_sum"],
                "cf": agg[f"{cf_col}_sum"],
            })

        return (
            ds_in.map_batches(tag, batch_format="pyarrow")
            .groupby("part")
            .map_groups(reduce_part, batch_format="pyarrow")
        )

    first = fold(partials, "partial_df", "partial_cf", with_salt=salt_buckets > 1)
    if salt_buckets > 1:
        return fold(first, "df", "cf", with_salt=False)
    return first


def top_terms(ds, n: int = 50, **kw) -> pa.Table:
    """Top-n by collection frequency; the sort+limit runs in Ray, so only
    n rows ever reach the driver."""
    final = term_stats_ds(ds, **kw).sort(["cf", "term"], descending=[True, False]).limit(n)
    t = pa.Table.from_pylist(final.take_all())
    return pa.table({
        "term": t["term"].cast(pa.string()),
        "df": t["df"].cast(pa.int64()),
        "cf": t["cf"].cast(pa.int64()),
    })
