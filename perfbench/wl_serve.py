"""``serve``: a ``SearchService`` (shard actors plus one hot-tier replica)
over the unmerged index. One closed-loop client sends ``search(fetch=True)``
requests interleaved with batched ``search_many`` calls. Exercises the
actor fan-out, routing, hot tier, merge and fetch; each shard does little
exec work.

Spans come from the client side: the resolver call, and ``ray.get`` on the
refs of each actor method (df fan-out, top-k fan-out, fetch), through a
proxy for the ``ray`` module the service uses and proxies for its actor
handles.
"""

from __future__ import annotations

import os
import time

import numpy as np

from . import queries, tracing
from .common import (RaySession, Run, actor_peak_rss_mb, median,
                     peak_rss_mb, percentile)
from .fixture import build_in_child
from .wl_query import LIMIT, same_top_k, vocabulary

HOT_REPLICAS = 1
WARMUP_QUERIES = 48
# share of the measured time spent on single searches; the rest runs
# batches. An assumption chosen for sample counts (enough singles for a
# p95, enough batches for a rate), not a measured traffic split. The two
# kinds are interleaved over the whole run, so a slow spell of the host
# falls on both alike instead of on one phase.
SINGLE_SHARE = 0.6
GATE_SINGLE = 40
GATE_BATCHES = 3

_FANOUT = {"partial_df": "query.serve.df_fanout",
           "top_k": "query.serve.topk_fanout",
           "top_k_many": "query.serve.topk_fanout",
           "top_k_many_local": "query.serve.topk_fanout",
           "fetch_docs": "query.serve.fetch"}


class _TracedRay:
    """Stands in for the ``ray`` module inside ``rayfts.query.serve``:
    ``get`` is timed as a span named by the actor method behind the refs."""

    def __init__(self, ray, tracer: tracing.Tracer, ref_kinds: dict):
        self._ray = ray
        self._tracer = tracer
        self._kinds = ref_kinds

    def get(self, refs, *args, **kwargs):
        kinds = {self._kinds.pop(ref, None)
                 for ref in (refs if isinstance(refs, list) else [refs])}
        name = _FANOUT.get(kinds.pop(), "query.serve.other_get") \
            if len(kinds) == 1 else "query.serve.other_get"
        with self._tracer.span(name):
            return self._ray.get(refs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ray, name)


class _TracedActor:
    """Actor-handle proxy: remembers which method each ref came from and
    counts shard evaluations and hot-tier queries."""

    def __init__(self, handle, tracer: tracing.Tracer, ref_kinds: dict):
        self._handle = handle
        self._tracer = tracer
        self._kinds = ref_kinds

    def __getattr__(self, name):
        method = getattr(self._handle, name)
        proxy = self

        class _Method:
            @staticmethod
            def remote(*args, **kwargs):
                ref = method.remote(*args, **kwargs)
                proxy._kinds[ref] = name
                if name == "top_k":
                    proxy._tracer.count("query.serve.shard_evals")
                elif name == "top_k_many":
                    proxy._tracer.count("query.serve.shard_evals", len(args[0]))
                elif name == "top_k_many_local":
                    proxy._tracer.count("query.serve.hot_queries", len(args[0]))
                return ref

        return _Method


def install_serve(tr: tracing.Tracer, svc) -> None:
    import ray

    import rayfts.query.serve as serve
    from rayfts.query.parser import QueryParser

    kinds: dict = {}
    tr.wrap(svc._resolver, "_resolve", "query.serve.resolve")
    tr.wrap(QueryParser, "parse", "query.parser.parse")
    tr.set_attr(serve, "ray", _TracedRay(ray, tr, kinds))
    tr.set_attr(svc, "actors", [_TracedActor(a, tr, kinds) for a in svc.actors])
    tr.set_attr(svc, "hot_actors", [_TracedActor(a, tr, kinds) for a in svc.hot_actors])


def run(r: Run) -> dict:
    import ray

    from rayfts.query.searcher import Searcher
    from rayfts.query.serve import SearchService

    sz = r.sizes
    corpus_dir = os.path.join(r.work, "corpus")
    index_dir = os.path.join(r.work, "index")
    build_in_child(corpus_dir, index_dir, sz["serve_docs"], sz["serve_units"], r.seed)
    vocab = vocabulary(corpus_dir)
    warm = queries.take(queries.stream(np.random.default_rng([r.seed, 1]), vocab),
                        WARMUP_QUERIES)
    exclude = {queries.query_key(q) for _, q, _ in warm}

    # set-up: Ray session, a fresh service, warm-up traffic disjoint from
    # the measured stream (so the hot tier's cache starts without it)
    t0 = time.perf_counter()
    session = RaySession(r.work)
    r.closers.append(session.close)
    svc = SearchService(index_dir, num_actors=sz["serve_shards"],
                        hot_replicas=HOT_REPLICAS)
    r.closers.append(svc.shutdown)
    for _shape, q, _fetch in warm:
        svc.search(q, LIMIT, fetch=True)
    svc.search_many([q for _s, q, _f in warm], LIMIT)
    setup_s = time.perf_counter() - t0

    rec = r.rec
    tr = tracing.Tracer()
    probe = r.probe
    probe.sample(5)
    it = queries.stream(np.random.default_rng(r.seed), vocab, exclude)
    # batches draw from a stream of their own, so each batch is one whole
    # block of it and holds the planned shape mix
    batch_it = queries.stream(np.random.default_rng([r.seed, 3]), vocab, exclude)
    gate_rng = np.random.default_rng([r.seed, 2])
    single_check, batch_check = [], []
    lat, traced_lat, batch_lat = [], [], []
    batch_queries = 0
    # time spent on each kind, failed ops included: it decides what runs next
    single_time, batch_time = 0.0, 0.0
    hot_misses = 0

    def hot_cache_size() -> int:
        return sum(ray.get([a.cache_stats.remote() for a in svc.hot_actors]))

    def activate(on: bool):
        # hot-tier cache misses = growth of the replicas' result caches
        # while traced (the caches never fill in one run)
        nonlocal hot_misses
        if on != tr.installed:
            if on:
                hot_misses -= hot_cache_size()
                install_serve(tr, svc)
            else:
                tr.uninstall()
                hot_misses += hot_cache_size()

    i = 0
    start = time.perf_counter()
    end = start + r.seconds
    while time.perf_counter() < end:
        probe.maybe()
        if batch_time < (1.0 - SINGLE_SHARE) * (single_time + batch_time):
            activate(False)
            batch = [q for _s, q, _f in queries.take(batch_it, len(queries.BLOCK))]
            t0 = time.perf_counter()
            got = rec.op(svc.search_many, batch, LIMIT)
            dt = time.perf_counter() - t0
            batch_time += dt
            if got is None:
                continue
            batch_lat.append(dt)
            batch_queries += len(batch)
            if len(batch_check) < GATE_BATCHES:
                batch_check.append((batch, got))
            continue
        _shape, q, _fetch = next(it)
        traced = r.traced_op(i)
        activate(traced)
        if traced:
            tr.begin_op()
        t0 = time.perf_counter()
        got = rec.op(svc.search, q, LIMIT, fetch=True)
        dt = time.perf_counter() - t0
        single_time += dt
        i += 1
        if got is None:
            continue
        (traced_lat if traced else lat).append(dt)
        if len(single_check) < GATE_SINGLE and (not single_check or gate_rng.random() < 0.1):
            single_check.append((q, got))
    activate(False)
    rss = peak_rss_mb(include_ray_workers=True)
    actor_rss = actor_peak_rss_mb("ray::QueryActor")

    # gate: the service must return what one in-process Searcher returns
    local = Searcher(index_dir)
    for q, got in single_check:
        want = [(round(h.score, 6), h.doc_id) for h in local.top_k(q, LIMIT)]
        docs = [row["doc"] for row in local.query_string(q, LIMIT)]
        rec.gate(same_top_k([(s, g) for s, g, _d in got], want)
                 and [d for _s, _g, d in got] == docs,
                 f"search {q!r}")
    for batch, got in batch_check:
        for q, hits in zip(batch, got):
            want = [(round(h.score, 6), h.doc_id) for h in local.top_k(q, LIMIT)]
            rec.gate(same_top_k(hits, want), f"search_many {q!r}")

    if r.trace:
        # one query per traced search
        hot_q = tr.counts["query.serve.hot_queries"]
        layers = {
            "query.parser.parse_s": tr.per_op(tr.self_s("query.parser.parse")),
            "query.serve.resolve_s": tr.per_op(tr.self_s("query.serve.resolve")),
            "query.serve.df_fanout_s": tr.per_op(tr.total_s("query.serve.df_fanout")),
            "query.serve.topk_fanout_s": tr.per_op(tr.total_s("query.serve.topk_fanout")),
            "query.serve.fetch_s": tr.per_op(tr.total_s("query.serve.fetch")),
            "query.serve.shards_per_query": tr.per_op(tr.counts["query.serve.shard_evals"]),
            "query.serve.hot_share": tr.per_op(hot_q),
            "query.serve.hot_cache_hit_ratio": 1.0 - hot_misses / hot_q if hot_q else 0.0,
            "query.serve.actor_rss_mb": actor_rss,
        }
        return tracing.finish(layers, tr, lat, traced_lat, r.trace_path, probe)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "p50_ms": median(lat) * 1e3,
        "tail_ms": percentile(lat, 95) * 1e3,
        "rate_per_s": batch_queries / sum(batch_lat) if batch_lat else 0.0,
        "secondary_p50_ms": median(batch_lat) * 1e3,
    }
