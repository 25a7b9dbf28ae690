#!/usr/bin/env python3
"""rayfts benchmark: one workload per invocation, one closed-loop client.

    python3 perfbench/run.py --workload query --seed 1 --seconds 10 --trace 0

Workloads: build, query, serve, ingest (NOTES.md says what each one
exercises and why). With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of the traced run instead. Exits non-zero, printing no
result, when ``rayfts`` cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

T_START = time.monotonic()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)

# the whole run, set-up and clean-up included, stays under this
RUN_BUDGET_S = 170.0
CLEANUP_RESERVE_S = 25.0


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["build", "query", "serve", "ingest"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="input sizes; 'tiny' is for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # import the checkout's packages; the script's own directory must not
    # shadow standard modules
    if sys.path and os.path.abspath(sys.path[0]) == BENCH_DIR:
        sys.path[0] = REPO_ROOT
    elif REPO_ROOT not in sys.path:
        sys.path.insert(0, REPO_ROOT)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
    os.environ["RAY_DISABLE_IMPORT_WARNING"] = "1"
    # the program under test is the checkout's own rayfts, never an
    # installed copy
    if not os.path.isfile(os.path.join(REPO_ROOT, "rayfts", "__init__.py")):
        print(f"perfbench: no rayfts package in {REPO_ROOT}", file=sys.stderr)
        return 2
    import rayfts

    if not os.path.abspath(rayfts.__file__).startswith(REPO_ROOT + os.sep):
        print(f"perfbench: rayfts imported from {rayfts.__file__}, not {REPO_ROOT}",
              file=sys.stderr)
        return 2

    from perfbench import common, tracing, wl_build, wl_ingest, wl_query, wl_serve

    workloads = {"build": wl_build, "query": wl_query, "serve": wl_serve,
                 "ingest": wl_ingest}
    common.pin_to_nproc()
    common.become_subreaper()
    run = common.Run(workload=args.workload, seed=args.seed,
                     seconds=args.seconds, trace=bool(args.trace),
                     size=args.size, work=common.work_dir(args.workload),
                     rec=common.Recorder())
    budget = RUN_BUDGET_S - CLEANUP_RESERVE_S - (time.monotonic() - T_START)
    # a SIGTERM still shuts Ray down and removes the work directory
    signal.signal(signal.SIGTERM, _terminate)
    try:
        waiter = common.Deadline(lambda: workloads[args.workload].run(run), budget)
    finally:
        closer = common.Deadline(run.close, CLEANUP_RESERVE_S - 10.0)
        # whatever the closers missed or a hang left behind
        common.stop_descendants()
        shutil.rmtree(run.work, ignore_errors=True)
    values = waiter.result or {}
    rec = run.rec
    if waiter.timed_out:
        # a hang counts as a failed op; the result is still reported
        rec.failed += 1
        rec.attempted = max(rec.attempted, 1)
        rec.notes.append(f"timed out after {budget:.0f} s in {rec.in_flight or 'set-up'}")
    for note in rec.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    if waiter.error is not None or closer.error is not None:
        import traceback

        err = waiter.error or closer.error
        traceback.print_exception(type(err), err, err.__traceback__)
        return 1

    print(f"perfbench: speed factor {run.probe.factor:.4f}", file=sys.stderr)
    if not run.trace:
        values = common.normalized(values, run.probe)
    units = tracing.PER_LAYER if run.trace else common.END_TO_END
    result = {
        "correct": (not waiter.timed_out and rec.gate_checked > 0
                    and rec.gate_failed == 0),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    if waiter.timed_out or closer.timed_out:
        # a hung thread cannot be joined; leave without waiting for it
        sys.stderr.flush()
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
