"""Spans and counters for the traced run, recorded from outside the
program: each layer's public function is wrapped (module or class
attribute swapped for a timing wrapper) while tracing is installed, and
restored afterwards. Spans stay in memory until ``dump``.

A span is (name, start, end, parent span, request id). A layer's self
time is its span's duration minus the durations of its direct children;
all spans of one run are recorded on the single client thread, so
children nest inside their parent.
"""

from __future__ import annotations

import builtins
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

SHAPES = ("term", "or", "and", "phrase", "field", "fuzzy", "absent")

# name -> unit of every per-layer metric. Times and counts are per traced
# op of the workload (a build cycle, a query, a serve request or a commit
# round); "per class" counts are per traced query of that shape class.
PER_LAYER: dict[str, str] = {
    "analysis.analyze_s": "s/op",
    "index.segment.read_s": "s/op",
    "index.build.prep_s": "s/op",
    "index.segment.invert_s": "s/op",
    "index.segment.encode_s": "s/op",
    "index.segment.write_s": "s/op",
    "index.build.plan_s": "s/op",
    "index.build.units": "count/op",
    "index.build.sched_s": "s/op",
    "index.segment.postings_bytes": "B/doc",
    "index.segment.positions_bytes": "B/doc",
    "index.segment.store_bytes": "B/doc",
    "index.merge.plan_s": "s/op",
    "index.merge.groups": "count/op",
    "index.merge.group_s": "s/op",
    "index.merge.bytes_rewritten": "B/op",
    "index.manifest.writes": "count/op",
    "index.manifest.write_s": "s/op",
    "index.catalog.auto_merges": "count/op",
    "index.catalog.searcher_open_s": "s/op",
    "query.parser.parse_s": "s/op",
    "query.searcher.df_s": "s/op",
    "query.searcher.df_lookups": "count/op",
    "query.exec.pruned_s": "s/op",
    "query.exec.exhaustive_s": "s/op",
    "query.exec.pruned_share": "ratio",
    "query.searcher.segments_visited": "count/op",
    "query.searcher.merge_s": "s/op",
    **{f"codec.{what}.{cls}": "count/op"
       for what in ("blocks_decoded", "lists_decoded", "docs_decoded")
       for cls in SHAPES},
    "codec.decode_s": "s/op",
    "index.segment.term_lookups": "count/op",
    "index.segment.postings_cache_hit_ratio": "ratio",
    "index.segment.store_loads": "count/op",
    "index.segment.store_s": "s/op",
    "query.searcher.fetch_s": "s/op",
    "query.snippet.snippet_s": "s/op",
    "query.serve.resolve_s": "s/op",
    "query.serve.df_fanout_s": "s/op",
    "query.serve.topk_fanout_s": "s/op",
    "query.serve.fetch_s": "s/op",
    "query.serve.shards_per_query": "count/op",
    "query.serve.hot_share": "ratio",
    "query.serve.hot_cache_hit_ratio": "ratio",
    "query.serve.actor_rss_mb": "MB",
    **{f"query.shape.{cls}_p50_ms": "ms" for cls in SHAPES},
    "index.catalog.commit_p50_ms": "ms",
    "index.catalog.query_p50_ms": "ms",
    "machine.speed_factor": "ratio",
    "trace.p50_ms": "ms",
    "trace.overhead_share": "ratio",
    "trace.spans": "count/op",
}


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, request id]
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.class_ops: defaultdict[str, int] = defaultdict(int)
        self.ops = 0  # also the request id of the current op's spans
        self.op_class: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------
    def begin_op(self, op_class: str | None = None) -> None:
        """A new traced client op: its spans share one request id."""
        self.ops += 1
        self.op_class = op_class
        if op_class is not None:
            self.class_ops[op_class] += 1

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.ops]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    # -- instrumentation -----------------------------------------------------
    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Swap ``owner.attr`` for a wrapper that records a span around each
        call. ``name`` is a span name or a function of the call's args
        returning one (None: no span); ``after(result, args)`` updates
        counters."""
        orig = getattr(owner, attr)
        own = attr in getattr(owner, "__dict__", {})
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            if span_name is None:
                out = orig(*args, **kwargs)
            else:
                with tracer.span(span_name):
                    out = orig(*args, **kwargs)
            if after is not None:
                after(out, args)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig, own))

    def count_calls(self, owner, attr: str, counter: str) -> None:
        self.wrap(owner, attr, None, after=lambda _out, _args: self.count(counter))

    def set_attr(self, owner, attr: str, value) -> None:
        """Replace an attribute outright (restored by ``uninstall``)."""
        own = attr in getattr(owner, "__dict__", {})
        self._patches.append((owner, attr, getattr(owner, attr, None), own))
        setattr(owner, attr, value)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def activate(self, on: bool, install) -> None:
        """Install the wrappers (``install(self)``) or remove them."""
        if on and not self.installed:
            install(self)
        elif not on and self.installed:
            self.uninstall()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig, own = self._patches.pop()
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    # -- analysis --------------------------------------------------------------
    def _self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def _has_ancestor(self, idx: int, name: str) -> bool:
        p = self.spans[idx][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def self_s(self, name: str, under: str | None = None) -> float:
        """Total self time of spans called ``name`` (optionally only those
        with an ancestor span called ``under``)."""
        own = self._self_times()
        return sum(
            own[i] for i, s in enumerate(self.spans)
            if s[0] == name and (under is None or self._has_ancestor(i, under)))

    def total_s(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def n(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def per_op(self, value: float) -> float:
        return value / self.ops if self.ops else 0.0

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "parent": parent, "request": req,
                                    "name": name, "start": start, "end": end}))
                f.write("\n")


class _TimedFile:
    """File proxy whose writes are recorded as segment-write spans."""

    def __init__(self, f, tracer: Tracer):
        self._f = f
        self._tracer = tracer

    def write(self, data):
        with self._tracer.span("index.segment.write"):
            return self._f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        with self._tracer.span("index.segment.write"):
            self._f.close()
        return False

    def __getattr__(self, name):
        return getattr(self._f, name)


# -- layer instrumentation sets ----------------------------------------------


def install_segment_build(tr: Tracer) -> None:
    """Phases of one segment build: read, analyze, invert (the self time
    of ``build_segment``), encode and write."""
    import numpy as np
    import pyarrow.parquet as pq

    import rayfts.index.build as build
    import rayfts.index.catalog as catalog
    import rayfts.index.segment as segment
    from rayfts.analysis.analyzer import Analyzer

    tr.wrap(build, "build_segment", "index.segment.build")
    tr.wrap(catalog, "build_segment", "index.segment.build")
    tr.wrap(pq.ParquetFile, "read_row_groups", "index.segment.read")
    tr.wrap(Analyzer, "analyze_text_column", "analysis.analyze")
    tr.wrap(Analyzer, "tokens_positions_fast", "analysis.analyze")
    for fn in ("encode_postings_batch", "encode_varints", "varint_lengths"):
        tr.wrap(segment, fn, "index.segment.encode")
    tr.wrap(pq, "write_table", "index.segment.write")
    tr.wrap(np, "savez", "index.segment.write")

    def traced_open(file, mode="r", *args, **kwargs):
        f = builtins.open(file, mode, *args, **kwargs)
        return _TimedFile(f, tr) if "w" in mode else f

    # a module global named ``open`` shadows the builtin inside that module
    tr.set_attr(segment, "open", traced_open)


def install_merge(tr: Tracer) -> None:
    import rayfts.index.merge as merge
    from rayfts.index import manifest as mf
    from .common import dir_bytes

    def planned(groups, _args):
        tr.count("index.merge.groups", len(groups))
        if groups:
            tr.count("index.merge.passes_with_groups")

    def merged(info, args):
        tr.count("index.merge.bytes_rewritten",
                 dir_bytes(mf.segment_path(args[0], info.segment_id)))

    tr.wrap(merge, "plan_log_merge_groups", "index.merge.plan", after=planned)
    tr.wrap(merge, "merge_segment_group", "index.merge.group", after=merged)


def install_catalog(tr: Tracer) -> None:
    import rayfts.index.catalog as catalog
    from rayfts.index import manifest as mf

    tr.wrap(mf, "write_manifest", "index.manifest.write")
    tr.wrap(catalog, "Searcher", "index.catalog.searcher_open")


def install_query(tr: Tracer) -> None:
    """Parse, df, per-segment execution (pruned or exhaustive), top-k
    merge, codec decodes, term lookups, store loads, fetch and snippet."""
    import numpy as np
    import pyarrow.parquet as pq

    import rayfts.codec.postings as postings
    import rayfts.index.segment as segment
    import rayfts.query.searcher as searcher
    from rayfts.index.segment import SegmentReader
    from rayfts.query.parser import QueryParser
    from rayfts.query.snippet import SnippetGenerator

    block = postings.BLOCK_SIZE

    def lists(pl, _args):
        cls = tr.op_class
        tr.count(f"codec.lists_decoded.{cls}")
        tr.count(f"codec.docs_decoded.{cls}", pl.doc_freq)
        tr.count(f"codec.blocks_decoded.{cls}", -(-pl.doc_freq // block))
        tr.count("codec.lists_decoded")

    def blocks(out, args):
        cls = tr.op_class
        tr.count(f"codec.blocks_decoded.{cls}", int(np.asarray(args[1]).size))
        tr.count(f"codec.docs_decoded.{cls}", int(out[0].size))

    def table_read(args, kwargs):
        path = str(args[0] if args else kwargs.get("source", ""))
        if path.endswith(segment.STORE_FILE):
            return "index.segment.store_load"
        return "index.segment.table_read"

    tr.wrap(QueryParser, "parse", "query.parser.parse")
    tr.wrap(searcher.Searcher, "global_df", "query.searcher.df")
    tr.wrap(searcher.Searcher, "top_k", "query.searcher.top_k")
    tr.wrap(searcher.Searcher, "query_string", "query.searcher.query_string")
    tr.wrap(searcher, "top_k_term_union", "query.exec.pruned")
    tr.wrap(searcher, "execute", "query.exec.exhaustive")
    tr.wrap(segment, "decode_postings", "codec.decode", after=lists)
    tr.wrap(postings, "decode_blocks", "codec.decode", after=blocks)
    tr.count_calls(SegmentReader, "doc_freq", "query.searcher.df_lookups")
    tr.count_calls(SegmentReader, "term_ordinal", "index.segment.term_lookups")
    tr.count_calls(SegmentReader, "postings_by_ordinal", "index.segment.postings_requests")
    tr.wrap(pq, "read_table", table_read)
    tr.wrap(SnippetGenerator, "snippet", "query.snippet.snippet")


def query_layers(tr: Tracer) -> dict[str, float]:
    """Per-op query-layer metrics from an ``install_query`` trace."""
    visits = tr.n("query.exec.pruned") + tr.n("query.exec.exhaustive")
    requests = tr.counts["index.segment.postings_requests"]
    out = {
        "query.parser.parse_s": tr.per_op(tr.self_s("query.parser.parse")),
        "query.searcher.df_s": tr.per_op(tr.self_s("query.searcher.df")),
        "query.searcher.df_lookups": tr.per_op(tr.counts["query.searcher.df_lookups"]),
        "query.exec.pruned_s": tr.per_op(tr.self_s("query.exec.pruned")),
        "query.exec.exhaustive_s": tr.per_op(tr.self_s("query.exec.exhaustive")),
        "query.exec.pruned_share": tr.n("query.exec.pruned") / visits if visits else 0.0,
        "query.searcher.segments_visited": tr.per_op(visits),
        "query.searcher.merge_s": tr.per_op(tr.self_s("query.searcher.top_k")),
        "codec.decode_s": tr.per_op(tr.self_s("codec.decode")),
        "index.segment.term_lookups": tr.per_op(tr.counts["index.segment.term_lookups"]),
        "index.segment.postings_cache_hit_ratio":
            1.0 - tr.counts["codec.lists_decoded"] / requests if requests else 0.0,
        "index.segment.store_loads": tr.per_op(tr.n("index.segment.store_load")),
        "index.segment.store_s": tr.per_op(tr.self_s("index.segment.store_load")),
        "query.searcher.fetch_s": tr.per_op(tr.self_s("query.searcher.query_string")),
        "query.snippet.snippet_s": tr.per_op(tr.self_s("query.snippet.snippet")),
    }
    for what in ("blocks_decoded", "lists_decoded", "docs_decoded"):
        for cls in SHAPES:
            ops = tr.class_ops.get(cls, 0)
            total = tr.counts[f"codec.{what}.{cls}"]
            out[f"codec.{what}.{cls}"] = total / ops if ops else 0.0
    return out


def segment_build_layers(tr: Tracer, ops: int) -> dict[str, float]:
    """Per-op segment-writer phase metrics from ``install_segment_build``."""
    def per(v):
        return v / ops if ops else 0.0

    return {
        "analysis.analyze_s": per(tr.self_s("analysis.analyze")),
        "index.segment.read_s": per(tr.self_s("index.segment.read")),
        "index.segment.invert_s": per(tr.self_s("index.segment.build")),
        "index.segment.encode_s": per(tr.self_s("index.segment.encode")),
        "index.segment.write_s": per(
            tr.self_s("index.segment.write", under="index.segment.build")),
    }


def finish(values: dict[str, float], tr: Tracer, lat: list[float],
           traced_lat: list[float], dump_path: str, probe) -> dict[str, float]:
    """Add the tracing cost (traced against untraced ops of the same run)
    and the machine's speed factor, and write the spans out. Per-layer
    times are as measured, not scaled."""
    from .common import median

    values = dict(values)
    values["machine.speed_factor"] = probe.factor
    values["trace.spans"] = tr.per_op(len(tr.spans))
    values["trace.p50_ms"] = median(traced_lat) * 1e3
    if lat and traced_lat:
        values["trace.overhead_share"] = median(traced_lat) / median(lat) - 1.0
    tr.dump(dump_path)
    return values
