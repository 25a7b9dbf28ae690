"""Smoke test of the benchmark itself: every workload at tiny size, both
the untraced and the traced run. Each must pass its correctness gate with
no failed op and print every metric ``BENCHMARK.json`` names, with its
unit; the traced run must report a non-zero value for every per-layer
metric whose layer does work in that workload. No process of a run's
Ray session may outlive the run, also when the checkout path is too deep
for Ray's socket paths. Run from the repository root:

    python3 -m pytest perfbench/smoke.py -q

The file name keeps it out of pytest's default collection, so the
repository's own test run does not start these benchmark runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.common import END_TO_END
from perfbench.tracing import PER_LAYER

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["build", "query", "serve", "ingest"]

# per-layer metrics that must be non-zero in a tiny traced run: their layer
# does work in that workload. A layer timed by swapping a module attribute
# reads 0 without an error once the program stops calling it through that
# attribute; this is what catches it. Left out are values that can be 0
# by nature of the tiny input: the hot-tier cache hit ratio (no query
# repeats) and the shards per search (the hot tier takes most searches and
# absent-term queries reach no shard, so the few traced searches may all
# miss the shards; the shared fan-out proxy is checked by topk_fanout_s).
_EVERY = ["machine.speed_factor", "trace.p50_ms", "trace.spans"]
_SEGMENT_WRITE = ["analysis.analyze_s", "index.segment.invert_s",
                  "index.segment.encode_s", "index.segment.write_s"]
_MERGE = ["index.merge.plan_s", "index.merge.groups", "index.merge.group_s",
          "index.merge.bytes_rewritten", "index.manifest.writes",
          "index.manifest.write_s"]
_SEARCH = ["query.parser.parse_s", "query.searcher.df_s",
           "query.searcher.df_lookups", "query.exec.pruned_s",
           "query.exec.exhaustive_s", "query.exec.pruned_share",
           "query.searcher.segments_visited", "query.searcher.merge_s",
           "codec.decode_s", "index.segment.term_lookups",
           "query.searcher.fetch_s"]
_DECODING_SHAPES = ["term", "or", "and", "phrase", "field", "fuzzy"]
LAYERS_AT_WORK = {
    "build": _EVERY + _SEGMENT_WRITE + _MERGE + [
        "index.segment.read_s", "index.build.prep_s", "index.build.plan_s",
        "index.build.units", "index.build.sched_s",
        "index.segment.postings_bytes", "index.segment.positions_bytes",
        "index.segment.store_bytes"],
    "query": _EVERY + _SEARCH + [
        "index.segment.postings_cache_hit_ratio", "query.snippet.snippet_s"]
        + [f"codec.{what}.{shape}" for what in ("blocks_decoded", "lists_decoded", "docs_decoded")
           for shape in _DECODING_SHAPES]
        + [f"query.shape.{shape}_p50_ms" for shape in _DECODING_SHAPES + ["absent"]],
    "serve": _EVERY + [
        "query.parser.parse_s", "query.serve.resolve_s", "query.serve.df_fanout_s",
        "query.serve.topk_fanout_s", "query.serve.fetch_s", "query.serve.hot_share",
        "query.serve.actor_rss_mb"],
    "ingest": _EVERY + _SEGMENT_WRITE + _MERGE + _SEARCH + [
        "index.catalog.auto_merges", "index.catalog.searcher_open_s",
        "index.catalog.commit_p50_ms", "index.catalog.query_p50_ms",
        "index.segment.store_loads", "index.segment.store_s"],
}


def _spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(cwd: str, *args: str, timeout: float = 180) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


# command-line marks of the processes a Ray session starts
_RAY_MARKS = (b"ray::", b"raylet", b"gcs_server", b"dashboard/agent.py",
              b"runtime_env/agent", b"log_monitor.py")


def _ray_processes() -> set[int]:
    """Live processes of any Ray session on this machine."""
    out = set()
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    cmd = f.read()
            except OSError:
                continue
            if any(m in cmd for m in _RAY_MARKS):
                out.add(int(pid))
    return out


def _check_tiny_run(cwd: str, workload: str, trace: int) -> dict:
    """One tiny run from ``cwd``: exit 0, the gate passed, no failed op,
    and no process of its Ray session still alive once it has exited."""
    before = _ray_processes()
    p = _run(cwd, "--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--size", "tiny")
    assert p.returncode == 0, p.stderr[-3000:]
    left = _ray_processes() - before
    assert not left, f"processes outlived the run: {sorted(left)}"
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, p.stderr[-3000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def test_spec_matches_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    for names in LAYERS_AT_WORK.values():
        assert set(names) <= set(PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_tiny(workload: str, trace: int):
    result = _check_tiny_run(REPO_ROOT, workload, trace)
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        idle = [n for n in LAYERS_AT_WORK[workload] if not result["metrics"][n]["value"] > 0]
        assert not idle, f"layers at work in {workload} read 0: {idle}"


def test_deep_checkout(tmp_path):
    """From a checkout whose path is too long for Ray's 107-byte socket
    paths the run still works, and leaves no process behind."""
    root = tmp_path / ("checkout-" + "d" * 80)
    shutil.copytree(os.path.join(REPO_ROOT, "rayfts"), root / "rayfts",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH_DIR, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), root)
    assert len(str(root).encode()) > 107
    _check_tiny_run(str(root), "build", 0)


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark cannot produce a result."""
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(str(tmp_path), "--workload", "query", "--seed", "1",
             "--seconds", "1", "--trace", "0", timeout=60)
    assert p.returncode != 0
    assert not any(line.startswith("{") for line in p.stdout.splitlines())
