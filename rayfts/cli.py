"""Command-line entrypoints — the ``ray job submit`` surface.

The north rule requires builds "submitted via ray job submit on
fixed-size multi-node clusters"; these commands are that job script::

    ray job submit --working-dir . -- \
        python -m rayfts.cli build \
            --input 's3://corpus/part-*.parquet' --index /shared/idx \
            --schema schema.json --content-col content \
            --key-cols repo,path,commit

    python -m rayfts.cli query  --index /shared/idx --query 'match AND struct' --limit 10
    python -m rayfts.cli serve-query --index /shared/idx --query match --actors 8
    python -m rayfts.cli merge  --index /shared/idx --group-size 8
    python -m rayfts.cli info   --index /shared/idx

Only this module (an owned script) calls ``ray.init`` — and only when Ray
is not already initialised (inside ``ray job submit`` the cluster session
exists; standalone it starts a local one). Library code never does
(driver contract, ``__ray_entry__.py``).

Schema files accept BOTH the reference's JSON shape
(``/root/reference/test/lib/fixtures.js:15-48``) and the native terse
shape (see ``rayfts.index.schema``).
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
import time


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _load_schema(path_or_json: str):
    from rayfts.index.schema import IndexSchema

    if path_or_json.strip().startswith("["):
        return IndexSchema.from_json(json.loads(path_or_json))
    with open(path_or_json) as f:
        return IndexSchema.from_json(json.load(f))


def _input_paths(patterns: list[str]) -> list[str]:
    """Expand each glob on its own; a pattern that matches nothing is
    passed through as given (remote URIs such as ``s3://...`` are not
    globbed locally), so the reader raises on a missing path instead of
    silently dropping it."""
    return [p for pat in patterns for p in sorted(glob.glob(pat)) or [pat]]


def _read_inputs(patterns: list[str]):
    import ray.data

    return ray.data.read_parquet(_input_paths(patterns))


def _write_parquet(ds, out: str) -> int:
    """Write ``ds`` as Parquet under ``out`` and return its row count. The
    pipeline runs once: it is materialized first, so the count reads
    block metadata instead of running the lazy plan a second time."""
    ds = ds.materialize()
    ds.write_parquet(out)
    return ds.count()


def cmd_build(args) -> int:
    _ensure_ray()
    from rayfts.index.build import build_index

    paths = _input_paths(args.input)
    t0 = time.time()
    manifest = build_index(
        paths,
        args.index,
        _load_schema(args.schema),
        index_name=args.name,
        content_col=args.content_col,
        key_cols=args.key_cols.split(",") if args.key_cols else None,
        num_segments=args.num_segments,
        target_docs_per_segment=args.target_docs_per_segment,
        resume=not args.no_resume,
    )
    dt = time.time() - t0
    print(json.dumps({
        "index": args.index, "segments": len(manifest.segments),
        "docs": manifest.num_docs, "seconds": round(dt, 2),
        "docs_per_sec": round(manifest.num_docs / dt, 1) if dt else None,
    }))
    return 0


def cmd_append(args) -> int:
    """Distributed incremental ingest into an existing index."""
    _ensure_ray()
    from rayfts.index.build import append_to_index

    paths = _input_paths(args.input)
    t0 = time.time()
    m = append_to_index(paths, args.index, content_col=args.content_col,
                        key_cols=args.key_cols.split(",") if args.key_cols else None)
    print(json.dumps({"index": args.index, "segments": len(m.segments),
                      "docs": m.num_docs, "version": m.version,
                      "seconds": round(time.time() - t0, 2)}))
    return 0


def cmd_query(args) -> int:
    """In-process string query: ``Searcher`` needs no Ray session."""
    from rayfts.query.searcher import Searcher

    s = Searcher(args.index)
    hits = s.query_string(args.query, limit=args.limit,
                          snippet_field=args.snippet_field)
    for h in hits:
        print(json.dumps({"score": round(h["score"], 6), "doc": h["doc"],
                          "snippet": h.get("snippet")}))
    return 0


def cmd_serve_query(args) -> int:
    """One-shot query through the distributed actor-pool path (the serving
    architecture; long-running deployments keep the SearchService alive)."""
    _ensure_ray()
    from rayfts.query.serve import SearchService

    svc = SearchService(args.index, num_actors=args.actors,
                        hot_replicas=args.hot_replicas)
    for score, gid, doc in svc.search(args.query, limit=args.limit, fetch=True):
        print(json.dumps({"score": round(score, 6), "docid": int(gid), "doc": doc}))
    svc.shutdown()
    return 0


def cmd_batch_search(args) -> int:
    """Bulk query evaluation: a file of query strings (one per line) or a
    parquet file with a ``query`` column -> top-k per query, written as
    partitioned parquet (resumable consumption) or printed."""
    _ensure_ray()
    import pyarrow as pa

    import ray.data

    from rayfts.query.serve import batch_search

    if args.queries.endswith(".parquet"):
        qds = ray.data.read_parquet(args.queries)
    else:
        with open(args.queries) as f:
            lines = [ln.strip() for ln in f if ln.strip()]
        qds = ray.data.from_arrow(pa.table({"query": pa.array(lines)}))
    out = batch_search(qds, args.index, limit=args.limit)
    if args.out:
        print(json.dumps({"out": args.out, "rows": _write_parquet(out, args.out)}))
    else:
        for r in out.take_all():
            print(json.dumps(r))
    return 0


def cmd_merge(args) -> int:
    _ensure_ray()
    from rayfts.index.merge import log_merge_index, merge_index

    t0 = time.time()
    if args.log_policy:
        manifest = log_merge_index(args.index, min_merge=args.min_merge,
                                   max_merge=args.group_size,
                                   max_passes=args.max_passes)
    else:
        manifest = merge_index(args.index, group_size=args.group_size)
    print(json.dumps({
        "index": args.index, "segments": len(manifest.segments),
        "docs": manifest.num_docs, "seconds": round(time.time() - t0, 2),
    }))
    return 0


def cmd_term_stats(args) -> int:
    """Corpus (term, df, cf) table via the salted term shuffle."""
    _ensure_ray()
    from rayfts.ops.termstats import term_stats_ds

    out = term_stats_ds(_read_inputs(args.input), col=args.col,
                        analyzer=args.analyzer, salt_buckets=args.salt_buckets)
    print(json.dumps({"out": args.out, "rows": _write_parquet(out, args.out)}))
    return 0


def cmd_postings_export(args) -> int:
    """Term-partitioned global posting lists (groupby-term shuffle)."""
    _ensure_ray()
    from rayfts.ops.postings_export import build_term_postings

    summary = build_term_postings(
        _read_inputs(args.input), args.out, col=args.col,
        id_col=args.id_col, analyzer=args.analyzer, num_buckets=args.buckets,
        resume=args.resume,
    )
    terms = summary["terms"].to_pylist()  # -1 marks a resumed bucket
    print(json.dumps({"out": args.out, "buckets": summary.num_rows,
                      "terms_built": int(sum(t for t in terms if t >= 0)),
                      "buckets_resumed": sum(1 for t in terms if t < 0)}))
    return 0


def cmd_info(args) -> int:
    from rayfts.index.manifest import build_metrics_summary, read_manifest

    m = read_manifest(args.index)
    print(json.dumps({
        "name": m.name, "version": m.version, "opstamp": m.opstamp,
        "docs": m.num_docs, "build_metrics": build_metrics_summary(m),
        "segments": [
            {"id": s.segment_id, "docs": s.num_docs,
             "lineage": s.lineage, "metrics": s.metrics}
            for s in m.ordered_segments()
        ],
    }, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="rayfts")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build or resume an index (ray job entrypoint)")
    b.add_argument("--input", nargs="+", required=True, help="parquet paths/globs")
    b.add_argument("--index", required=True)
    b.add_argument("--schema", required=True, help="schema JSON file or inline JSON")
    b.add_argument("--name", default="index")
    b.add_argument("--content-col", default="content")
    b.add_argument("--key-cols", default=None, help="comma-separated doc-key columns")
    b.add_argument("--num-segments", type=int, default=None)
    b.add_argument("--target-docs-per-segment", type=int, default=None)
    b.add_argument("--no-resume", action="store_true")
    b.set_defaults(fn=cmd_build)

    app = sub.add_parser("append",
                         help="append new documents to an existing index")
    app.add_argument("--input", nargs="+", required=True)
    app.add_argument("--index", required=True)
    app.add_argument("--content-col", default="content")
    app.add_argument("--key-cols", default=None)
    app.set_defaults(fn=cmd_append)

    q = sub.add_parser("query", help="string query against an index")
    q.add_argument("--index", required=True)
    q.add_argument("--query", required=True)
    q.add_argument("--limit", type=int, default=10)
    q.add_argument("--snippet-field", default=None)
    q.set_defaults(fn=cmd_query)

    sq = sub.add_parser("serve-query", help="query via the actor-pool service")
    sq.add_argument("--index", required=True)
    sq.add_argument("--query", required=True)
    sq.add_argument("--limit", type=int, default=10)
    sq.add_argument("--actors", type=int, default=4)
    sq.add_argument("--hot-replicas", type=int, default=0,
                    help="hot-term tier size: queries routing cannot "
                         "confine to <= half the shards are answered by "
                         "one cached full-replica evaluation")
    sq.set_defaults(fn=cmd_serve_query)

    bs = sub.add_parser("batch-search", help="bulk query evaluation over a query file")
    bs.add_argument("--index", required=True)
    bs.add_argument("--queries", required=True,
                    help="text file (one query/line) or parquet with a 'query' column")
    bs.add_argument("--limit", type=int, default=10)
    bs.add_argument("--out", default=None, help="write results as parquet here")
    bs.set_defaults(fn=cmd_batch_search)

    m = sub.add_parser("merge", help="merge small segments (Ray tasks)")
    m.add_argument("--log-policy", action="store_true",
                   help="LogMergePolicy-like tiered compaction (contiguous "
                        "same-level runs) instead of fixed groups")
    m.add_argument("--min-merge", type=int, default=8)
    m.add_argument("--max-passes", type=int, default=8)
    m.add_argument("--index", required=True)
    m.add_argument("--group-size", type=int, default=8)
    m.set_defaults(fn=cmd_merge)

    ts = sub.add_parser("term-stats", help="(term, df, cf) over a corpus")
    ts.add_argument("--input", nargs="+", required=True)
    ts.add_argument("--col", default="content")
    ts.add_argument("--analyzer", default="en_stem")
    ts.add_argument("--salt-buckets", type=int, default=1)
    ts.add_argument("--out", required=True)
    ts.set_defaults(fn=cmd_term_stats)

    pe = sub.add_parser("postings-export",
                        help="term-partitioned global posting lists")
    pe.add_argument("--input", nargs="+", required=True)
    pe.add_argument("--col", default="content")
    pe.add_argument("--id-col", default="doc_id")
    pe.add_argument("--analyzer", default="en_stem")
    pe.add_argument("--buckets", type=int, default=32)
    pe.add_argument("--out", required=True)
    pe.add_argument("--resume", action="store_true",
                    help="skip buckets whose (atomic) files already exist")
    pe.set_defaults(fn=cmd_postings_export)

    i = sub.add_parser("info", help="print manifest (segments, lineage, metrics)")
    i.add_argument("--index", required=True)
    i.set_defaults(fn=cmd_info)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
