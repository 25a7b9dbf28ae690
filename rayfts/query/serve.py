"""Query serving: a stateful Ray actor pool over index segments.

The reference serves queries from a single process holding per-index
reader/parser singletons behind a strictly serial stdio loop
(``rpc.rs:121-131`` — one request at a time). Here each ``QueryActor``
owns a *subset* of segments (mmapped posting files + lazily cached term
dictionaries, loaded once in ``__init__``), and a ``SearchService``
fans a query out to the actors whose segments can match it (or to one
hot-tier replica) and merges their per-shard top-k by (score desc,
global docid asc) — SURVEY.md §2.3 #24 and §7.2.7.

Statistics are searcher-level across the WHOLE index in every actor
(each actor reads the full manifest but opens only its own segments),
so scores are identical no matter how segments are sharded over actors.
Reload-on-commit: ``refresh()`` re-reads the manifest and picks up newly
committed segments (ReloadPolicy::OnCommit, ``index.rs:219``).
"""

from __future__ import annotations

import logging

import numpy as np

import ray

from rayfts.index.manifest import read_manifest
from rayfts.query.ast import collect_scored_terms, routing_terms
from rayfts.query.exec import GlobalStats
from rayfts.query.parser import QueryParseError
from rayfts.query.searcher import QueryError, Searcher

logger = logging.getLogger(__name__)


@ray.remote
class QueryActor:
    def __init__(self, index_dir: str, segment_ids: list[str],
                 cache_size: int = 0):
        self.index_dir = index_dir
        self.segment_ids = segment_ids
        self.searcher = Searcher(index_dir, segment_ids=segment_ids)
        # bounded result cache (hot-tier replicas only): head queries
        # repeat by definition, and results are immutable per manifest
        # version — refresh() drops the cache with the searcher
        self.cache_size = int(cache_size)
        self._cache: dict = {}

    def ready(self) -> bool:
        return True

    def refresh(self, segment_ids: list[str]) -> int:
        """Adopt a new manifest version (and possibly more segments)."""
        self.segment_ids = segment_ids
        self.searcher = Searcher(self.index_dir, segment_ids=segment_ids)
        self._cache = {}
        return self.searcher.manifest.version

    def _cached_top_k(self, query, limit: int) -> list[tuple[float, int]]:
        """Top-k over THIS actor's (full, for tier replicas) segment set
        with native searcher-level stats, memoized per (query, limit)."""
        key = (repr(query), limit)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        out = [(h.score, h.doc_id) for h in self.searcher.top_k(query, limit)]
        if self.cache_size > 0:
            if len(self._cache) >= self.cache_size:
                self._cache.pop(next(iter(self._cache)))
            self._cache[key] = out
        return out

    def top_k_many_local(self, queries: list, limit: int) -> list[list[tuple[float, int]]]:
        """Hot-tier entry: each query answered entirely by this replica
        (its segment set is the whole index), through the result cache."""
        return [self._cached_top_k(q, limit) for q in queries]

    def cache_stats(self) -> int:
        return len(self._cache)

    def partial_df(self, pairs: list[tuple[str, str]]) -> dict:
        """Doc freqs over THIS actor's segments (summed service-side)."""
        return self.searcher.global_df(pairs)

    def top_k_many(self, queries: list, limit: int, df: dict) -> list[list[tuple[float, int]]]:
        """Per-shard top-k -> (score, global docid) pairs (small), one
        actor round-trip for a whole query batch. ``df`` carries the
        cross-actor global doc freqs so BM25 idf is searcher-level no
        matter how segments are sharded."""
        stats = GlobalStats(
            n_docs=self.searcher.n_docs, avgdl=self.searcher.avgdl, df=df
        )
        return [
            [(h.score, h.doc_id) for h in self.searcher.top_k(q, limit, stats=stats)]
            for q in queries
        ]

    def count(self, query) -> int:
        return self.searcher.count(query)

    def facet_counts(self, query, facets: dict) -> dict[str, list[dict]]:
        """Facet counts over THIS actor's segments, keyed per FIELD so the
        service-side sum cannot collapse equal paths from different
        fields (summed service-side). ALL fields are accumulated in one
        query evaluation per segment (single-pass multi-collector)."""
        return self.searcher.facet_counts_by_field(query, facets)

    def fetch_docs(self, global_ids: list[int]) -> dict[int, dict]:
        """Stored docs of the ids THIS actor's segments hold (others are
        left out)."""
        docs = {g: self.searcher._fetch_doc(g) for g in global_ids}
        return {g: d for g, d in docs.items() if d is not None}


class SearchService:
    """Fan-out/merge client. ``num_actors`` actors each own a contiguous
    slice of the ordered segment list (contiguity keeps global-docid
    ranges disjoint per actor, so doc fetch routes without broadcast).

    Hot-term tier (``hot_replicas`` > 0): head terms live in EVERY doc
    shard, so term-dictionary routing cannot prune them and a hot query
    used to pay per-shard evaluation on all N actors (N x the per-query
    fixed cost, with weaker local WAND thresholds). Queries whose
    routing terms reach more than half the shards are instead sent —
    round-robin, one evaluation each — to a tier of replica actors with
    native searcher-level stats, behind a per-replica result cache
    (head queries repeat by definition; results are immutable per
    manifest version). Scores are bit-identical to the sharded path,
    which uses the same summed global df.

    Scale note: on one box the tier replicas mmap the same index files
    (page cache shared — replication is free). On a 100-TB cluster the
    tier is provisioned as replicas of the HEAD-PRUNED index — the head
    terms' posting lists plus the fieldnorm column, small because head
    terms are few (Zipf) — serving hot-only queries; hot+rare
    disjunctions fall back to the routed all-shard fan-out, which the
    rare term's high idf keeps rare in practice."""

    def __init__(self, index_dir: str, num_actors: int = 4,
                 hot_replicas: int = 0, hot_cache_size: int = 4096):
        self.index_dir = index_dir
        ordered, shards = self._split(max(1, num_actors))
        # at most one actor per segment, at least one actor
        self.shards = [x for x in shards if x] or shards[:1]
        self.actors = [
            QueryActor.remote(index_dir, shard) for shard in self.shards
        ]
        self.hot_actors = [
            QueryActor.remote(index_dir, ordered, cache_size=hot_cache_size)
            for _ in range(hot_replicas)
        ]
        self._hot_rr = 0  # round-robin cursor over the tier
        # a segment-less local searcher: manifest + parser only, used to
        # resolve query strings and to collect the scored-term pairs
        self._resolver = Searcher(index_dir, segment_ids=[])
        ray.get([a.ready.remote() for a in self.actors + self.hot_actors])

    def _split(self, num_shards: int) -> tuple[list[str], list[list[str]]]:
        """The current manifest's ordered segment ids, and their split
        into ``num_shards`` contiguous (possibly empty) shards."""
        manifest = read_manifest(self.index_dir)
        ordered = [s.segment_id for s in manifest.ordered_segments()]
        return ordered, [list(x) for x in np.array_split(ordered, num_shards)]

    def refresh(self) -> None:
        ordered, shards = self._split(len(self.actors))
        ray.get([a.refresh.remote(s) for a, s in zip(self.actors, shards)]
                + [a.refresh.remote(ordered) for a in self.hot_actors])
        self.shards = shards

    def _route_live(self, need, parts_df) -> list[int]:
        """Shard indices that can possibly match (term-dictionary
        routing); ``need is None`` means unroutable (evaluate everywhere)."""
        return [ai for ai in range(len(self.actors))
                if need is None
                or any(parts_df[ai].get(p, 0) > 0 for p in need)]

    def _is_hot(self, live: list[int]) -> bool:
        """A query is tier-eligible when routing cannot confine it to at
        most half the shards — the signature of head-term traffic."""
        return bool(self.hot_actors) and len(live) > max(1, len(self.actors) // 2)

    def _top_k(self, queries: list, limit: int) -> list[list[tuple]]:
        """Global top-k of every query in TWO fan-outs for the whole batch:
        (1) partial df per shard actor for the union of all scored terms,
        summed to searcher-level df; (2) one batched top-k per actor that
        any query was routed to. Returns per query the merged
        ``(score, global docid, actor)`` hits, by (score desc, global
        docid asc); the actor is the one that returned the hit and so
        holds its stored doc.

        Each query is ROUTED: a tier-eligible query (see ``_is_hot``) goes
        to one hot replica, round-robin; any other is evaluated only on
        the shard actors whose term dictionaries contain at least one of
        its necessary terms (:func:`rayfts.query.ast.routing_terms`,
        decided from the partial-df results the df fan-out already
        fetched). Without routing, N shards evaluate every query against
        1/N of the index and per-query cost is sub-linear in index size
        (block-max WAND), so sharded fan-out used to LOSE to one merged
        searcher; routing restores the win for mid/rare-term traffic."""
        actors, hot_actors = self.actors, self.hot_actors
        resolved = [self._resolver._resolve(q) for q in queries]
        pairs = sorted({p for r in resolved for p in collect_scored_terms(r)})
        parts_df = ray.get([a.partial_df.remote(pairs) for a in actors])
        df: dict = {}
        for part in parts_df:
            for k, v in part.items():
                df[k] = df.get(k, 0) + v
        routes: list[list[int]] = [[] for _ in actors]
        hot_routes: list[list[int]] = [[] for _ in hot_actors]
        for qi, r in enumerate(resolved):
            live = self._route_live(routing_terms(r), parts_df)
            if self._is_hot(live):
                hot_routes[self._hot_rr % len(hot_actors)].append(qi)
                self._hot_rr += 1
            else:
                for ai in live:
                    routes[ai].append(qi)
        # shard and tier requests are all in flight before either wait
        shard_live = [ai for ai, idx in enumerate(routes) if idx]
        refs = [actors[ai].top_k_many.remote([resolved[i] for i in routes[ai]], limit, df)
                for ai in shard_live]
        hot_live = [hi for hi, idx in enumerate(hot_routes) if idx]
        hot_refs = [hot_actors[hi].top_k_many_local.remote(
                        [resolved[i] for i in hot_routes[hi]], limit)
                    for hi in hot_live]
        parts = ray.get(refs) if refs else []
        hot_parts = ray.get(hot_refs) if hot_refs else []
        per_query: list[list[tuple]] = [[] for _ in queries]
        for group, routed, live, got in ((actors, routes, shard_live, parts),
                                         (hot_actors, hot_routes, hot_live, hot_parts)):
            for i, part in zip(live, got):
                for qi, hits in zip(routed[i], part):
                    per_query[qi].extend((s, g, group[i]) for s, g in hits)
        return [sorted(hits, key=lambda h: (-h[0], h[1]))[:limit] for hits in per_query]

    def search(self, query, limit: int = 10, fetch: bool = False):
        """Global top-k of one query as ``(score, global docid)`` pairs, or
        ``(score, global docid, stored doc)`` with ``fetch``: each doc
        comes from the actor that returned its hit (one RPC per such
        actor, all sent before one wait)."""
        hits = self._top_k([query], limit)[0]
        if not fetch:
            return [(s, g) for s, g, _a in hits]
        by_actor: dict = {}
        for _s, g, a in hits:
            by_actor.setdefault(a, []).append(g)
        docs: dict[int, dict] = {}
        if by_actor:
            for part in ray.get([a.fetch_docs.remote(gids)
                                 for a, gids in by_actor.items()]):
                docs.update(part)
        return [(s, g, docs.get(g)) for s, g, _a in hits]

    def search_many(self, queries: list, limit: int = 10) -> list[list[tuple[float, int]]]:
        """Batched global top-k: the same two fan-outs as ``search``, once
        for the whole batch instead of twice per query — the latency
        shape for the 100 TB mode where the index is sharded across the
        actor pool."""
        return [[(s, g) for s, g, _a in hits] for hits in self._top_k(queries, limit)]

    def count(self, query) -> int:
        return sum(ray.get([a.count.remote(query) for a in self.actors]))

    def facet_counts(self, query, facets: dict) -> list[dict]:
        """Distributed facet collector: per-actor counts (each actor scans
        only its own segments' match sets) summed on the client — a
        grouped aggregate, the same merge shape as tantivy's segment-level
        FacetCollector fruit."""
        resolved = self._resolver._resolve(query)
        parts = ray.get(
            [a.facet_counts.remote(resolved, facets) for a in self.actors]
        )
        out: list[dict] = []
        for field in facets:  # per-field merge, emitted in request order
            acc: dict[str, int] = {}
            for part in parts:
                for f in part.get(field, []):
                    acc[f["term"]] = acc.get(f["term"], 0) + f["count"]
            out.extend({"term": t, "count": c} for t, c in sorted(acc.items()))
        return out

    def shutdown(self) -> None:
        for a in self.actors + self.hot_actors:
            ray.kill(a)
        self.actors = []
        self.hot_actors = []


class BatchSearchStage:
    """Ray-Data-native BULK query evaluation: a callable class for
    ``queries_ds.map_batches(BatchSearchStage, fn_constructor_kwargs=
    {"index_dir": ...}, concurrency=N)`` — the whole Searcher (manifest,
    mmapped segments, cached term dicts, parser) is built ONCE per actor
    in ``__init__``; each batch of query strings returns top-k rows
    ``(query, rank, global docid, score)``.

    This is the shape for evaluating millions of queries against a built
    index (relevance sweeps, query-log replay): queries stream as a
    Dataset, the index is per-actor state, results are a Dataset again.
    """

    def __init__(self, index_dir: str, limit: int = 10, query_col: str = "query"):
        self.searcher = Searcher(index_dir)
        self.limit = limit
        self.query_col = query_col

    def __call__(self, batch):
        import pyarrow as pa

        q_out, r_out, d_out, s_out = [], [], [], []
        for q in batch[self.query_col].to_pylist():
            # only EXPECTED per-query errors (bad query text) yield zero
            # rows; anything else (index I/O, corrupt segment, bugs) must
            # propagate so Ray retries/fails the task instead of writing
            # silently-empty results to the sink (ADVICE r1)
            try:
                hits = self.searcher.top_k(q, self.limit)
            except (QueryParseError, QueryError) as e:
                logger.warning("batch_search: query %r rejected: %s", q, e)
                hits = []
            for rank, h in enumerate(hits, 1):
                q_out.append(q)
                r_out.append(rank)
                d_out.append(h.doc_id)
                s_out.append(h.score)
        return pa.table({
            "query": pa.array(q_out, type=pa.string()),
            "rank": pa.array(r_out, type=pa.int64()),
            "doc_id": pa.array(d_out, type=pa.int64()),
            "score": pa.array(s_out, type=pa.float64()),
        })


def batch_search(ds, index_dir: str, limit: int = 10, query_col: str = "query",
                 concurrency=None):
    """Wire a query Dataset through a BatchSearchStage actor pool."""
    if concurrency is None:
        try:
            cpus = int(ray.cluster_resources().get("CPU", 8))
        except Exception:
            cpus = 8
        # FIXED pool size: the autoscaling ramp (start 1, grow on queue
        # depth) dominates short query jobs — measured 2.6x lower QPS
        # than starting the full pool eagerly
        n = max(2, cpus // 2)
        concurrency = (n, n)
    # a single-block query set would feed ONE task -> one actor; split so
    # the whole pool works (4 batches per max actor keeps the pool busy)
    max_actors = concurrency[1] if isinstance(concurrency, tuple) else concurrency
    ds = ds.repartition(max(1, int(max_actors) * 4))
    return ds.map_batches(
        BatchSearchStage,
        fn_constructor_kwargs={"index_dir": index_dir, "limit": limit,
                               "query_col": query_col},
        batch_format="pyarrow",
        concurrency=concurrency,
    )
