"""Local mimic of the driver's correctness gate: run every queries()
entry at a given sf_dir, run the matching oracle_sql() in DuckDB over the
same parquet tables, compare row-count + schema + order-insensitive
value hash, and print the engine output's value hash per row (so two
checkouts can be compared row by row). A --only/--skip name that is not
a queries() row is an error, and an oracle_sql() entry with no
queries() row counts as a failure (it would never run).
Usage: python tools/check_oracle.py [sf_dir] [--only a,b] [--skip c]."""

from __future__ import annotations

import hashlib
import os
import sys
import time

import duckdb
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = ["documents"]  # the only table the oracles read


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)]
    rows = sorted(
        tuple(str(v) for v in row) for row in df.itertuples(index=False, name=None)
    )
    return hashlib.sha256(str(rows).encode()).hexdigest()[:16]


def name_problems(qs, oracles, names: set[str]) -> tuple[list[str], list[str]]:
    """(requested names that are not queries() rows, oracle_sql() keys
    with no queries() row)."""
    return sorted(names - set(qs)), sorted(set(oracles) - set(qs))


def main(sf_dir: str, only: set[str] | None = None,
         skip: set[str] | None = None) -> int:
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    unknown, stale = name_problems(qs, oracles, (only or set()) | (skip or set()))
    if unknown:
        print("unknown query names: " + ", ".join(unknown))
        print("known: " + ", ".join(sorted(qs)))
        return 2
    n_fail = 0
    for name in stale:
        print(f"FAIL {name}: oracle_sql() entry has no queries() row")
        n_fail += 1

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    for name, fn in qs.items():
        if only and name not in only:
            continue
        if skip and name in skip:
            print(f"skip {name}")
            continue
        t0 = time.time()
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        dt = time.time() - t0
        h = value_hash(mine)
        if name not in oracles:
            print(f"ok   {name}: rows-only ({len(mine)} rows, {dt:.1f}s, {h})")
            continue
        try:
            orc = con.sql(oracles[name]).df()
        except Exception as e:
            print(f"FAIL {name}: oracle SQL raised: {e}")
            n_fail += 1
            continue
        problems = []
        if len(mine) != len(orc):
            problems.append(f"rows {len(mine)} != {len(orc)}")
        if sorted(map(str.lower, mine.columns)) != sorted(map(str.lower, orc.columns)):
            problems.append(f"cols {sorted(mine.columns)} != {sorted(orc.columns)}")
        if not problems and h != value_hash(orc):
            problems.append("value hash mismatch")
            merged = mine.sort_values(sorted(mine.columns)).reset_index(drop=True).compare(
                orc[mine.columns].sort_values(sorted(mine.columns)).reset_index(drop=True)
                if len(mine) == len(orc) else orc
            ) if len(mine) == len(orc) else None
            if merged is not None and len(merged):
                problems.append(f"first diffs:\n{merged.head(5)}")
        if problems:
            print(f"FAIL {name}: " + "; ".join(str(p) for p in problems))
            n_fail += 1
        else:
            print(f"PASS {name} ({len(mine)} rows, {dt:.1f}s, {h})")
    print("failures:", n_fail)
    return n_fail


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("sf_dir", nargs="?", default="/root/testdata/sf0.01")
    ap.add_argument("--only", help="comma-separated query names to run")
    ap.add_argument("--skip", help="comma-separated query names to skip "
                    "(e.g. sharded_search_tier, which starts a Ray actor "
                    "pool)")
    a = ap.parse_args()
    sys.exit(main(a.sf_dir,
                  only=set(a.only.split(",")) if a.only else None,
                  skip=set(a.skip.split(",")) if a.skip else None))
