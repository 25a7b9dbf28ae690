"""``build``: repeated bulk ``build_index`` of the seeded code corpus
through Ray Data, each followed by one ``log_merge_index`` pass.

Almost all analysis, segment-writer, encode and merge work, and no query
work. The traced run instruments the driver side of the Ray build (unit
planning, manifest commits) and then replays the same units and merge
groups in this process with every segment-writer phase wrapped, since the
unit builds themselves run in Ray worker processes.
"""

from __future__ import annotations

import os
import shutil
import time

import pyarrow.parquet as pq

from . import tracing
from .common import (KEY_COLS, RaySession, Run, code_schema,
                     content_xor, make_corpus, median, peak_rss_mb)
from .fixture import build_units

# probe queries whose top-10 must be identical before and after the merge
PROBES = ["the", "match struct", "+return -void", '"the the"', "lang:py", "ident42"]


def _probe_queries(index_dir: str) -> list:
    from rayfts.query.searcher import Searcher

    s = Searcher(index_dir)
    return [[(round(h.score, 6), h.doc_id) for h in s.top_k(q, 10)] for q in PROBES]


def _check_build(rec, manifest, expected: dict, num_docs: int) -> None:
    """Doc count and every segment's lineage checksum against the corpus."""
    rec.gate(manifest.num_docs == num_docs,
             f"build doc count {manifest.num_docs} != {num_docs}")
    for s in manifest.segments:
        path = s.lineage.get("path")
        rec.gate(path in expected and s.lineage.get("content_xor") == expected[path]
                 and s.num_docs == s.lineage.get("rows"),
                 f"segment {s.segment_id} lineage {s.lineage}")


def _count_segment_bytes(tr, index_dir: str, manifest, docs: int) -> None:
    from rayfts.index import manifest as mf

    for name, fname in (("postings", "postings.bin"),
                        ("positions", "positions.bin"),
                        ("store", "store.parquet")):
        tr.count(f"index.segment.{name}_bytes", sum(
            os.path.getsize(os.path.join(mf.segment_path(index_dir, s.segment_id), fname))
            for s in manifest.segments) / docs)


def _layer_replay(tr: tracing.Tracer, files: list[str], replay_dir: str,
                  docs_per_unit: int) -> None:
    """Build the planned units and merge groups again in this process
    with the segment-writer and merge phases wrapped."""
    import rayfts.index.merge as merge
    from rayfts.index import manifest as mf

    tracing.install_segment_build(tr)
    try:
        build_units(files, replay_dir, docs_per_unit, tracer=tr)
    finally:
        tr.uninstall()
    tracing.install_merge(tr)
    try:
        m = mf.read_manifest(replay_dir)
        for g in merge.plan_log_merge_groups(m.ordered_segments()):
            merge.merge_segment_group(replay_dir, m.schema.to_json(), g)
    finally:
        tr.uninstall()
    shutil.rmtree(replay_dir, ignore_errors=True)


def run(r: Run) -> dict:
    import rayfts.index.build as build
    from rayfts.index import manifest as mf
    from rayfts.index.build import build_index
    from rayfts.index.merge import log_merge_index

    sz = r.sizes
    docs, units = sz["build_docs"], sz["build_units"]
    per_unit = -(-docs // units)
    schema = code_schema()
    files = make_corpus(os.path.join(r.work, "corpus"), docs, units, r.seed)
    expected = {f: content_xor(pq.read_table(f, columns=["content"])["content"].to_pylist())
                for f in files}

    def build_once(index_dir: str):
        return build_index(files, index_dir, schema, index_name="code",
                           key_cols=KEY_COLS, resume=False,
                           target_docs_per_segment=per_unit)

    # set-up: a Ray session sized to the machine, then one cold build and
    # merge (worker start, imports, first Ray Data execution)
    t0 = time.perf_counter()
    session = RaySession(r.work)
    r.closers.append(session.close)
    warm_dir = os.path.join(r.work, "warm")
    build_once(warm_dir)
    log_merge_index(warm_dir)
    setup_s = time.perf_counter() - t0
    shutil.rmtree(warm_dir, ignore_errors=True)

    rec = r.rec
    tr = tracing.Tracer()
    probe = r.probe
    build_s, merge_s, traced_build_s = [], [], []
    sched_s = 0.0
    cycle = 0
    start = time.perf_counter()
    # the build blocks for seconds per call; the probe samples beside it
    with probe.sampling():
        # a traced run measures at least one traced cycle
        while time.perf_counter() < start + r.seconds or (r.trace and not tr.ops):
            index_dir = os.path.join(r.work, f"index-{cycle}")
            traced = r.trace and cycle % 2 == 1
            if traced:
                tr.begin_op()
                # driver-side calls only: anything the Ray tasks pickle stays unwrapped
                tr.wrap(build, "plan_units", "index.build.plan",
                        after=lambda units_, _a: tr.count("index.build.units", len(units_)))
                tr.wrap(mf, "write_manifest", "index.manifest.write")
            t0 = time.perf_counter()
            manifest = rec.op(build_once, index_dir)
            t_build = time.perf_counter() - t0
            cycle += 1
            if manifest is None:
                tr.uninstall()
                continue
            _check_build(rec, manifest, expected, docs)
            if traced:
                _count_segment_bytes(tr, index_dir, manifest, docs)
            before = _probe_queries(index_dir)
            t0 = time.perf_counter()
            merged = rec.op(log_merge_index, index_dir)
            t_merge = time.perf_counter() - t0
            tr.uninstall()
            if merged is not None:
                rec.gate(merged.num_docs == docs and _probe_queries(index_dir) == before,
                         "query results changed across the merge")
            if traced:
                traced_build_s.append(t_build)
                # scheduling = build wall time not spent planning or building units
                units_before = tr.total_s("index.build.unit")
                _layer_replay(tr, files, os.path.join(r.work, f"replay-{cycle}"), per_unit)
                sched_s += t_build - (tr.total_s("index.build.unit") - units_before)
            else:
                build_s.append(t_build)
                if merged is not None:
                    merge_s.append(t_merge)
            shutil.rmtree(index_dir, ignore_errors=True)
    rss = peak_rss_mb(include_ray_workers=True)

    if r.trace:
        per = tr.per_op
        layers = tracing.segment_build_layers(tr, tr.ops)
        layers.update({
            "index.build.prep_s": per(tr.self_s("index.build.unit")),
            "index.build.plan_s": per(tr.total_s("index.build.plan")),
            "index.build.units": per(tr.counts["index.build.units"]),
            "index.build.sched_s": per(sched_s - tr.total_s("index.build.plan")),
            "index.merge.plan_s": per(tr.self_s("index.merge.plan")),
            "index.merge.groups": per(tr.counts["index.merge.groups"]),
            "index.merge.group_s": per(tr.self_s("index.merge.group")),
            "index.merge.bytes_rewritten": per(tr.counts["index.merge.bytes_rewritten"]),
            "index.manifest.writes": per(tr.n("index.manifest.write")),
            "index.manifest.write_s": per(tr.total_s("index.manifest.write")),
        })
        for name in ("postings", "positions", "store"):
            layers[f"index.segment.{name}_bytes"] = per(tr.counts[f"index.segment.{name}_bytes"])
        return tracing.finish(layers, tr, build_s, traced_build_s, r.trace_path, probe)
    total_build = sum(build_s)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "p50_ms": median(build_s) * 1e3,
        "tail_ms": max(build_s, default=0.0) * 1e3,
        "rate_per_s": docs * len(build_s) / total_build if total_build else 0.0,
        "secondary_p50_ms": median(merge_s) * 1e3,
    }
