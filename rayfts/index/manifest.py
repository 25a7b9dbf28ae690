"""Index manifest: the atomic commit point of an index.

Ray-native analogue of the reference's ``meta.json``
(``/root/reference/src-rust/index.rs:306-336``: segment list + schema +
opstamp, written atomically) and of its distributed-build primitive
``add_segments`` (``index.rs:286-324``: validate id, reject duplicates,
append SegmentMeta, bump opstamp by max_doc, atomic rewrite — e2e
``test/segments.js:27-40``).

Global docids are deterministic: segments are ordered by segment_id and
each gets ``doc_id_offset`` = running sum of preceding ``num_docs``.
A segment's entry carries its lineage (input partition -> content hash)
and build metrics, which is what makes builds resumable: a restarted
build diffs the manifest against its planned partition list and skips
committed segments.
"""

from __future__ import annotations

import fcntl
import json
import os
import shutil
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field

from rayfts.index.schema import IndexSchema
from rayfts.index.segment import SegmentInfo, scratch_pid

MANIFEST_FILE = "manifest.json"
LOCK_FILE = ".manifest.lock"
SEGMENTS_DIR = "segments"


@dataclass
class Manifest:
    name: str
    schema: IndexSchema
    segments: list[SegmentInfo] = dc_field(default_factory=list)
    opstamp: int = 0
    version: int = 0
    # build-plan parameters pinned at index creation (partition mode,
    # target unit size) so a RESUMED build re-plans the IDENTICAL unit
    # list regardless of the resuming cluster's size — unit ids must match
    # for the committed-set diff to skip finished work
    build_params: dict = dc_field(default_factory=dict)

    def segment_ids(self) -> set[str]:
        return {s.segment_id for s in self.segments}

    def built_ids(self) -> set[str]:
        """Ids of every segment whose documents the index holds: the live
        segments and the build units merged into them (lineage
        ``covers``). A resumed build skips these."""
        return self.segment_ids().union(
            *(s.lineage.get("covers", ()) for s in self.segments))

    def ordered_segments(self) -> list[SegmentInfo]:
        return sorted(self.segments, key=lambda s: s.segment_id)

    def doc_id_offsets(self) -> dict[str, int]:
        off, out = 0, {}
        for s in self.ordered_segments():
            out[s.segment_id] = off
            off += s.num_docs
        return out

    @property
    def num_docs(self) -> int:
        return sum(s.num_docs for s in self.segments)

    def add_segments(self, infos: list[SegmentInfo]) -> "Manifest":
        """Register foreign/new segments; duplicate ids are rejected
        (reference semantics: ``index.rs:300-316``). Returns ``self``, so
        a ``commit`` mutation can be ``lambda m: m.add_segments(infos)``."""
        existing = self.segment_ids()
        for info in infos:
            if info.segment_id in existing:
                raise ValueError(f"segment {info.segment_id!r} already registered")
            existing.add(info.segment_id)
            self.segments.append(info)
            self.opstamp += info.num_docs
        return self

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "schema": self.schema.to_json(),
            "segments": [s.to_json() for s in self.segments],
            "opstamp": self.opstamp,
            "version": self.version,
            "build_params": self.build_params,
        }

    @staticmethod
    def from_json(d: dict) -> "Manifest":
        return Manifest(
            name=d["name"],
            schema=IndexSchema.from_json(d["schema"]),
            segments=[SegmentInfo.from_json(s) for s in d["segments"]],
            opstamp=d.get("opstamp", 0),
            version=d.get("version", 0),
            build_params=d.get("build_params", {}),
        )


def build_metrics_summary(manifest: Manifest) -> dict:
    """Aggregate the per-segment build metrics recorded on each
    SegmentInfo into index-level numbers (docs, tokens, bytes, per-unit
    build seconds, tokens/sec of pure inversion compute)."""
    secs = [s.metrics.get("build_secs", 0.0) for s in manifest.segments]
    tokens = sum(
        s.metrics.get("tokens")
        or sum(fs.get("total_tokens", 0) for fs in s.field_stats.values())
        for s in manifest.segments
    )
    post = sum(s.metrics.get("postings_bytes", 0) for s in manifest.segments)
    pos = sum(s.metrics.get("positions_bytes", 0) for s in manifest.segments)
    total_secs = sum(secs)
    return {
        "segments": len(manifest.segments),
        "docs": manifest.num_docs,
        "tokens": tokens,
        "postings_bytes": post,
        "positions_bytes": pos,
        "build_secs_sum": round(total_secs, 3),
        "build_secs_max": round(max(secs), 3) if secs else 0.0,
        "tokens_per_cpu_sec": round(tokens / total_secs, 1) if total_secs else None,
        "docs_per_cpu_sec": round(manifest.num_docs / total_secs, 1) if total_secs else None,
    }


def manifest_path(index_dir: str) -> str:
    return os.path.join(index_dir, MANIFEST_FILE)


def segments_dir(index_dir: str) -> str:
    return os.path.join(index_dir, SEGMENTS_DIR)


def segment_path(index_dir: str, segment_id: str) -> str:
    return os.path.join(index_dir, SEGMENTS_DIR, segment_id)


def read_manifest(index_dir: str) -> Manifest:
    with open(manifest_path(index_dir)) as f:
        return Manifest.from_json(json.load(f))


def write_manifest(index_dir: str, manifest: Manifest) -> None:
    """Atomic write: tmp file in the same dir + ``os.replace`` (the same
    discipline as the reference's ``directory.atomic_write``,
    ``index.rs:331-336``)."""
    os.makedirs(index_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=index_dir, prefix=".manifest-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(json.dumps(manifest.to_json()))
        os.replace(tmp, manifest_path(index_dir))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def manifest_exists(index_dir: str) -> bool:
    return os.path.isfile(manifest_path(index_dir))


def commit(
    index_dir: str, mutate: Callable[[Manifest | None], Manifest | None]
) -> Manifest | None:
    """The one commit point of an index. Under an exclusive ``flock`` on
    ``LOCK_FILE`` (tantivy's single-writer lock [tantivy 0.18, public]),
    hand the freshly read manifest (``None`` if none exists) to
    ``mutate``, which returns the manifest to write or ``None`` to abort;
    if it raises, nothing is written. Bumps the version and returns the
    committed manifest (``None`` on abort)."""
    os.makedirs(index_dir, exist_ok=True)
    with open(os.path.join(index_dir, LOCK_FILE), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        fresh = read_manifest(index_dir) if manifest_exists(index_dir) else None
        out = mutate(fresh)
        if out is None:
            return None
        out.version = fresh.version + 1 if fresh is not None else 0
        write_manifest(index_dir, out)
        return out


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # another user's process
        return True
    return True


def recover_orphan_segments(index_dir: str, manifest: Manifest) -> list[SegmentInfo]:
    """Adopt committed-but-unregistered segment directories into
    ``manifest``; the caller commits it. A segment write is atomic (tmp +
    rename), so any ``segments/<id>/`` directory containing a
    ``segment.json`` is a complete checkpoint even if the driver died
    before registering it. This mirrors the reference's
    catalog startup scan (every subdir with a meta.json is an index —
    ``index.rs:49-87``) applied at segment granularity; it is what makes a
    killed build resumable without redoing finished partitions. A merge
    output (lineage ``merged_from``) left by a merge that died before its
    swap is skipped: its sources are still registered. So is a source
    that a registered segment lists in its ``merged_from``, left by a
    merge that died after its swap but before deleting it: its documents
    are already in the merge output.

    A Dataset block (lineage ``{"source": "dataset"}``) is skipped too and
    its directory left in place: nothing can re-plan it, so whoever runs
    its Dataset again builds its rows again. ``append_to_index`` commits
    its blocks once at the end, so an unregistered block is either left
    by an append that failed after writing it or belongs to an append
    still running, whose commit does not look for ids already registered.
    Adopting it would count its rows twice in both cases.

    Scratch directories (``*.tmp``) are never adopted. Those that a write
    attempt on this host left behind when its process died are deleted
    (:func:`rayfts.index.segment.scratch_pid`); a live process's, another
    host's and any name that does not parse are left alone."""
    seg_root = segments_dir(index_dir)
    if not os.path.isdir(seg_root):
        return []
    known = manifest.segment_ids()
    merged_away = {sid for s in manifest.segments
                   for sid in s.lineage.get("merged_from", ())}
    adopted: list[SegmentInfo] = []
    for entry in sorted(os.listdir(seg_root)):
        if entry.endswith(".tmp"):
            pid = scratch_pid(entry)
            if pid is not None and not _alive(pid):
                shutil.rmtree(os.path.join(seg_root, entry), ignore_errors=True)
            continue
        if entry in known or entry in merged_away:
            continue
        meta = os.path.join(seg_root, entry, "segment.json")
        if not os.path.isfile(meta):
            continue
        with open(meta) as f:
            info = SegmentInfo.from_json(json.load(f))
        if ("merged_from" not in info.lineage
                and info.lineage.get("source") != "dataset"):
            adopted.append(info)
    manifest.add_segments(adopted)
    return adopted
