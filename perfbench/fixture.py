"""Index fixtures built without Ray.

``build_units`` runs the bulk build's own unit plan and unit builder
(``rayfts.index.build.plan_units`` / ``make_unit_builder``) in this
process, one unit after another, and commits the manifest. The segments
are those ``build_index`` writes for the same input; only the Ray Data
scheduling is absent. The query and serve workloads build their index this
way in a child process, so the build's memory never counts toward the
serving process's peak.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from multiprocessing import resource_tracker

import pyarrow as pa

from .common import KEY_COLS, READ_COLS, code_schema, make_corpus


def build_units(files: list[str], index_dir: str, docs_per_unit: int,
                tracer=None) -> list[dict]:
    """Build one segment per planned unit, in order; returns the units.
    With a tracer, each unit is an ``index.build.unit`` span."""
    from contextlib import nullcontext

    from rayfts.codec.fieldnorm import FieldNormCodec
    from rayfts.index import manifest as mf
    from rayfts.index.build import make_unit_builder, plan_units
    from rayfts.index.segment import SegmentInfo

    schema = code_schema()
    units = plan_units(files, docs_per_unit)
    builder = make_unit_builder(index_dir, schema.to_json(),
                                FieldNormCodec.TANTIVY_LIKE, "content",
                                KEY_COLS, READ_COLS)
    os.makedirs(mf.segments_dir(index_dir), exist_ok=True)
    infos = []
    for u in units:
        with tracer.span("index.build.unit") if tracer else nullcontext():
            out = builder(pa.Table.from_pylist([u]))
        infos.extend(SegmentInfo.from_json(json.loads(s))
                     for s in out["info"].to_pylist())
    manifest = mf.Manifest(
        name="code", schema=schema,
        build_params={"partition_mode": "input",
                      "target_docs_per_segment": int(docs_per_unit)})
    manifest.add_segments(sorted(infos, key=lambda i: i.segment_id))
    mf.write_manifest(index_dir, manifest)
    return units


def _build_index(corpus_dir: str, index_dir: str, docs: int, units: int,
                 seed: int) -> None:
    files = make_corpus(corpus_dir, docs, units, seed)
    build_units(files, index_dir, -(-docs // units))


def build_in_child(corpus_dir: str, index_dir: str, docs: int, units: int,
                   seed: int, timeout_s: float = 120.0) -> None:
    """Generate the seeded corpus and build its index in a spawned child."""
    ctx = multiprocessing.get_context("spawn")
    p = ctx.Process(target=_build_index,
                    args=(corpus_dir, index_dir, docs, units, seed))
    p.start()
    try:
        p.join(timeout_s)
        if p.is_alive():
            p.kill()
            p.join()
            raise TimeoutError(f"index fixture build exceeded {timeout_s:.0f} s")
    finally:
        # starting a spawned child also started multiprocessing's resource
        # tracker process; it ignores SIGTERM, so end it here
        resource_tracker._resource_tracker._stop()
    if p.exitcode != 0:
        raise RuntimeError(f"index fixture build failed (exit {p.exitcode})")
