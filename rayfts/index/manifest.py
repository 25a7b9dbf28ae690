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

Files leave an index only through :func:`sweep`: a merge retires its
sources, kept for readers of older versions until a grace has passed
(tantivy 0.18 deletes only files no living searcher uses [tantivy 0.18,
public]).
"""

from __future__ import annotations

import fcntl
import json
import os
import shutil
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field

from rayfts.index.schema import IndexSchema
from rayfts.index.segment import META_FILE, SegmentInfo, owner_pid

MANIFEST_FILE = "manifest.json"
LOCK_FILE = ".manifest.lock"
SEGMENTS_DIR = "segments"
# how long a retired segment outlives its retiring commit, in both units
RETIRE_GRACE_VERSIONS = 2
RETIRE_GRACE_SECONDS = 60.0


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
    # merged-away segment id -> [retiring version, unix time] until swept
    retired: dict[str, list] = dc_field(default_factory=dict)

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

    def contiguous(self, ids: list[str]) -> bool:
        """Whether every id is registered and they are adjacent in docid
        order: what a merge of them needs to swap in."""
        pos = {s.segment_id: i for i, s in enumerate(self.ordered_segments())}
        at = sorted(pos.get(sid, -1) for sid in ids)
        return at[0] >= 0 and at[-1] - at[0] == len(at) - 1

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
            "retired": self.retired,
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
            retired=d.get("retired", {}),
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
    if it raises, nothing is written. Bumps the version, sweeps (on abort,
    over the read manifest) and returns the committed one or ``None``."""
    os.makedirs(index_dir, exist_ok=True)
    with open(os.path.join(index_dir, LOCK_FILE), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        fresh = read_manifest(index_dir) if manifest_exists(index_dir) else None
        out = mutate(fresh)
        if out is not None:
            out.version = fresh.version + 1 if fresh is not None else 0
        if out or fresh:
            sweep(index_dir, out or fresh)
        if out is None:
            return None
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


def _unregistered(index_dir: str, manifest: Manifest):
    """``(name, info)`` per entry of ``segments/`` that ``manifest``
    neither registers nor retires; ``info`` only for complete segments."""
    root = segments_dir(index_dir)
    names = set(os.listdir(root)) if os.path.isdir(root) else set()
    for entry in sorted(names - manifest.segment_ids() - manifest.retired.keys()):
        meta = os.path.join(root, entry, META_FILE)
        if entry.endswith(".tmp") or not os.path.isfile(meta):
            yield entry, None
            continue
        with open(meta) as f:
            yield entry, SegmentInfo.from_json(json.load(f))


def sweep(index_dir: str, manifest: Manifest) -> None:
    """The one rule that deletes segment and scratch directories, run by
    :func:`commit` under its lock (so it adds no version). It deletes a
    retired segment past both graces, a scratch directory or unregistered
    Dataset block whose owner on this host is dead (``owner_pid``), and a
    merge output that can no longer swap in. Everything else stays."""
    live, now = manifest.segment_ids(), time.time()
    for sid, (version, at) in list(manifest.retired.items()):
        if (manifest.version - version >= RETIRE_GRACE_VERSIONS
                and now - at >= RETIRE_GRACE_SECONDS and sid not in live):
            shutil.rmtree(segment_path(index_dir, sid), ignore_errors=True)
            del manifest.retired[sid]
    for entry, info in _unregistered(index_dir, manifest):
        pid, sources = owner_pid(entry), info and info.lineage.get("merged_from")
        if (pid is not None and not _alive(pid)
                or sources and not manifest.contiguous(sources)):
            shutil.rmtree(segment_path(index_dir, entry), ignore_errors=True)


def recover_orphan_segments(index_dir: str, manifest: Manifest) -> list[SegmentInfo]:
    """Adopt committed-but-unregistered segment directories into
    ``manifest``; the caller commits it. A segment write is atomic (tmp +
    rename), so any ``segments/<id>/`` directory containing a
    ``segment.json`` is a complete checkpoint even if the driver died
    before registering it. This mirrors the reference's
    catalog startup scan (every subdir with a meta.json is an index —
    ``index.rs:49-87``) applied at segment granularity; it is what makes a
    killed build resumable without redoing finished partitions.

    It deletes nothing and skips retired segments, scratch directories,
    merge outputs (their sources are still registered) and Dataset blocks:
    a block's append failed or is still running and commits its blocks at
    the end, so adopting it would count its rows twice."""
    adopted = [info for _entry, info in _unregistered(index_dir, manifest)
               if info and "merged_from" not in info.lineage
               and info.lineage.get("source") != "dataset"]
    manifest.add_segments(adopted)
    return adopted
