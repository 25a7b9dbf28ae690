"""``query``: one warm in-process ``Searcher`` over the unmerged
many-segment index, one closed-loop client, a seeded mix of query shapes.
No Ray and no writes: parse, df, per-segment execution, codec decode,
top-k merge, and (for a fixed share of queries) fetch and snippet."""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow.parquet as pq

from . import queries, tracing
from .common import Run, median, peak_rss_mb, percentile
from .fixture import build_in_child

LIMIT = 10
WARMUP_QUERIES = 48
SETUP_REPS = 3
GATE_SHARE = 0.05
GATE_MAX = 40


def vocabulary(corpus_dir: str) -> queries.Vocabulary:
    files = sorted(f for f in os.listdir(corpus_dir) if f.endswith(".parquet"))
    contents = []
    for f in files[:2]:
        contents += pq.read_table(os.path.join(corpus_dir, f),
                                  columns=["content"])["content"].to_pylist()
    return queries.Vocabulary(contents)


def run_query(searcher, q, fetch: bool) -> list[tuple[float, int | None]]:
    """One client request: top-k, or top-k plus stored fields and snippet."""
    if fetch:
        rows = searcher.query_string(q, LIMIT, snippet_field="content")
        return [(r["score"], None) for r in rows]
    return [(h.score, h.doc_id) for h in searcher.top_k(q, LIMIT)]


def exhaustive_top_k(searcher, q) -> list[tuple[float, int]]:
    """Every match scored, sorted by (score desc, docid asc), cut to k."""
    gids, scores = searcher.matches(q)
    order = np.lexsort((gids, -scores))[:LIMIT]
    return [(round(float(scores[i]), 6), int(gids[i])) for i in order]


def same_top_k(got, want) -> bool:
    """Scores equal to 6 decimal places; docids equal where returned."""
    if len(got) != len(want):
        return False
    return all(round(s, 6) == ws and (g is None or g == wg)
               for (s, g), (ws, wg) in zip(got, want))


def run(r: Run) -> dict:
    from rayfts.query.searcher import Searcher

    sz = r.sizes
    corpus_dir = os.path.join(r.work, "corpus")
    index_dir = os.path.join(r.work, "index")
    build_in_child(corpus_dir, index_dir, sz["query_docs"], sz["query_units"], r.seed)
    vocab = vocabulary(corpus_dir)

    warm = queries.take(queries.stream(np.random.default_rng([r.seed, 1]), vocab),
                        WARMUP_QUERIES)
    exclude = {queries.query_key(q) for _, q, _ in warm}
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        searcher = Searcher(index_dir)
        for _shape, q, fetch in warm:
            run_query(searcher, q, fetch)
        setups.append(time.perf_counter() - t0)

    rec = r.rec
    tr = tracing.Tracer()
    probe = r.probe
    probe.sample(5)
    gate_rng = np.random.default_rng([r.seed, 2])
    to_check = []
    it = queries.stream(np.random.default_rng(r.seed), vocab, exclude)
    lat, traced_lat, by_shape, fetch_lat = [], [], {}, []
    i = 0
    start = time.perf_counter()
    deadline = start + r.seconds
    while time.perf_counter() < deadline:
        probe.maybe()
        shape, q, fetch = next(it)
        traced = r.traced_op(i)
        tr.activate(traced, tracing.install_query)
        if traced:
            tr.begin_op(shape)
        t0 = time.perf_counter()
        got = rec.op(run_query, searcher, q, fetch)
        dt = time.perf_counter() - t0
        i += 1
        if got is None:
            continue
        if traced:
            traced_lat.append(dt)
        else:
            lat.append(dt)
            by_shape.setdefault(shape, []).append(dt)
            if fetch:
                fetch_lat.append(dt)
        if len(to_check) < GATE_MAX and (not to_check or gate_rng.random() < GATE_SHARE):
            to_check.append((q, got))
    elapsed = time.perf_counter() - start
    tr.uninstall()
    rss = peak_rss_mb(include_ray_workers=False)

    for q, got in to_check:
        want = exhaustive_top_k(searcher, q)
        rec.gate(same_top_k(got, want), f"query {q!r}: {got[:3]} vs {want[:3]}")

    out = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "p50_ms": median(lat) * 1e3,
        "tail_ms": percentile(lat, 99) * 1e3,
        "rate_per_s": (len(lat) + len(traced_lat)) / elapsed,
        "secondary_p50_ms": median(fetch_lat) * 1e3,
    }
    if r.trace:
        layers = tracing.query_layers(tr)
        for shape, xs in by_shape.items():
            layers[f"query.shape.{shape}_p50_ms"] = median(xs) * 1e3
        return tracing.finish(layers, tr, lat, traced_lat, r.trace_path, probe)
    return out
