"""``ingest``: the reference's own traffic. One serial client calls
``IndexCatalog.add_documents`` with small batches and queries after every
commit, with the default auto-merge. Tiny segments, a cold searcher after
every reload, and a merge stall every few commits.

Each episode starts from a fresh index holding a base batch and runs a
fixed number of commit-then-query rounds, so every episode does the same
work; episodes repeat until the measured time is up.
"""

from __future__ import annotations

import os
import re
import shutil
import time

import numpy as np

from . import tracing
from .common import Run, code_schema, median, peak_rss_mb, percentile

LIMIT = 10
# head words of the corpus vocabulary (rayfts.corpus.HOT_TOKENS); no two
# of them share a stem, so a document matches exactly when it holds one
QUERY_WORDS = ["match", "struct", "return", "impl", "enum", "static", "class",
               "import", "switch", "const", "void", "null", "true", "pub"]
_WORD = re.compile(r"[^\W_]+")


def _episode_docs(seed: int, episode: int, n: int) -> list[dict]:
    from rayfts.corpus import generate_shard

    return generate_shard(episode, n, seed=seed).to_pylist()


def _query(rng: np.random.Generator) -> tuple[str, set[str]]:
    # 60% one-word, 40% two-word OR queries: an assumed mix, not measured
    k = 1 if rng.random() < 0.6 else 2
    words = [QUERY_WORDS[int(i)] for i in rng.choice(len(QUERY_WORDS), k, replace=False)]
    return " ".join(words), set(words)


def install_ingest(tr: tracing.Tracer) -> None:
    tracing.install_segment_build(tr)
    tracing.install_merge(tr)
    tracing.install_catalog(tr)
    tracing.install_query(tr)


def run(r: Run) -> dict:
    from rayfts.index.catalog import IndexCatalog

    sz = r.sizes
    base, batch, commits = sz["ingest_base"], sz["ingest_batch"], sz["ingest_commits"]
    schema = code_schema()
    rec = r.rec
    tr = tracing.Tracer()
    rng = np.random.default_rng(r.seed)
    probe = r.probe
    probe.sample(5)
    setups, commit_lat, query_lat, traced_lat = [], [], [], []
    docs_committed, commit_time = 0, 0.0
    i = 0
    episode = 0
    start = time.perf_counter()
    while time.perf_counter() < start + r.seconds:
        docs = _episode_docs(r.seed, episode, base + commits * batch)
        words = [set(_WORD.findall((d["content"] or "").lower())) for d in docs]
        root = os.path.join(r.work, f"catalog-{episode}")
        episode += 1

        t0 = time.perf_counter()
        index = IndexCatalog(root).create_index("code", schema)
        index.add_documents(docs[:base])
        index.query(QUERY_WORDS[0], LIMIT)
        setups.append(time.perf_counter() - t0)

        for c in range(commits):
            probe.maybe()
            lo = base + c * batch
            traced = r.traced_op(i)
            tr.activate(traced, install_ingest)
            if traced:
                tr.begin_op()
            t0 = time.perf_counter()
            info = rec.op(index.add_documents, docs[lo:lo + batch])
            t_commit = time.perf_counter() - t0
            q, qwords = _query(rng)
            t0 = time.perf_counter()
            hits = rec.op(index.query, q, LIMIT)
            t_query = time.perf_counter() - t0
            i += 1
            if info is None or hits is None:
                continue
            matches = sum(1 for w in words[:lo + batch] if w & qwords)
            rec.gate(len(hits) == min(LIMIT, matches),
                     f"{q!r} after {lo + batch} docs: {len(hits)} hits, {matches} matches")
            if traced:
                traced_lat.append(t_commit)
            else:
                commit_lat.append(t_commit)
                query_lat.append(t_query)
                docs_committed += batch
                commit_time += t_commit
        tr.activate(False, install_ingest)
        searcher = index.searcher()
        for w in QUERY_WORDS[:4]:
            want = sum(1 for ws in words if w in ws)
            rec.gate(searcher.count(w) == want, f"count {w!r} at episode end")
        shutil.rmtree(root, ignore_errors=True)
    rss = peak_rss_mb(include_ray_workers=False)

    if r.trace:
        layers = tracing.segment_build_layers(tr, tr.ops)
        layers.update(tracing.query_layers(tr))
        layers.update({
            "index.merge.plan_s": tr.per_op(tr.self_s("index.merge.plan")),
            "index.merge.groups": tr.per_op(tr.counts["index.merge.groups"]),
            "index.merge.group_s": tr.per_op(tr.self_s("index.merge.group")),
            "index.merge.bytes_rewritten": tr.per_op(tr.counts["index.merge.bytes_rewritten"]),
            "index.manifest.writes": tr.per_op(tr.n("index.manifest.write")),
            "index.manifest.write_s": tr.per_op(tr.total_s("index.manifest.write")),
            "index.catalog.auto_merges": tr.per_op(tr.counts["index.merge.passes_with_groups"]),
            "index.catalog.searcher_open_s": tr.per_op(tr.total_s("index.catalog.searcher_open")),
            "index.catalog.commit_p50_ms": median(commit_lat) * 1e3,
            "index.catalog.query_p50_ms": median(query_lat) * 1e3,
        })
        return tracing.finish(layers, tr, commit_lat, traced_lat, r.trace_path, probe)
    return {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "p50_ms": median(commit_lat) * 1e3,
        "tail_ms": percentile(commit_lat, 90) * 1e3,
        "rate_per_s": docs_committed / commit_time if commit_time else 0.0,
        "secondary_p50_ms": median(query_lat) * 1e3,
    }
