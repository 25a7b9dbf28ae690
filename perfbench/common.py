"""Shared pieces of the benchmark: sizes, the corpus schema, statistics,
process memory, the Ray session and the op recorder every workload fills.

Nothing here starts a process or opens a file at import time.
"""

from __future__ import annotations

import glob
import hashlib
import math
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
# scratch space for indexes, Ray's session files and the span dump; the
# whole tree is removed at the end of a run except the span dump
WORK_ROOT = os.path.join(REPO_ROOT, ".bench_work")

# Workload sizes. "full" is what a benchmark run measures; "tiny" is for the
# smoke test. Each build unit becomes one segment.
SIZES = {
    "full": {
        "build_docs": 4000, "build_units": 8,
        "query_docs": 16000, "query_units": 16,
        "serve_docs": 10000, "serve_units": 8, "serve_shards": 4,
        "ingest_base": 400, "ingest_batch": 25, "ingest_commits": 32,
    },
    "tiny": {
        "build_docs": 400, "build_units": 8,
        "query_docs": 1200, "query_units": 4,
        "serve_docs": 800, "serve_units": 4, "serve_shards": 2,
        "ingest_base": 40, "ingest_batch": 10, "ingest_commits": 16,
    },
}


# name -> unit of every end-to-end metric; every workload reports each one
# with its own meaning (NOTES.md has the table)
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "rate_per_s": "1/s",
    "secondary_p50_ms": "ms",
}

# in a traced run, ops alternate between untraced and traced blocks of
# this many ops, so both see the same warm state and the same mix
TRACE_BLOCK = 8


@dataclass
class Run:
    """One benchmark invocation: its arguments, recorder and the
    resources to release at the end (closers run last-in first-out)."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    size: str
    work: str
    rec: "Recorder"
    probe: "SpeedProbe" = field(default_factory=lambda: SpeedProbe())
    closers: list = field(default_factory=list)

    @property
    def sizes(self) -> dict:
        return SIZES[self.size]

    @property
    def trace_path(self) -> str:
        return os.path.join(WORK_ROOT, f"trace-{self.workload}-{self.seed}.jsonl")

    def traced_op(self, i: int) -> bool:
        return self.trace and (i // TRACE_BLOCK) % 2 == 1

    def close(self) -> None:
        while self.closers:
            self.closers.pop()()


def code_schema():
    """The schema of the synthetic code corpus (``rayfts.corpus``)."""
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


KEY_COLS = ["repo", "path", "commit"]
READ_COLS = ["content", "lang", "repo", "path", "commit"]


def make_corpus(out_dir: str, num_docs: int, num_units: int, seed: int) -> list[str]:
    """Seeded corpus as ``num_units`` parquet files of one row group each,
    so the bulk build plans exactly one unit (segment) per file."""
    from rayfts.corpus import generate_corpus

    generate_corpus(out_dir, num_docs, seed=seed, num_shards=num_units,
                    use_ray=False)
    return sorted(glob.glob(os.path.join(out_dir, "part-*.parquet")))


def content_xor(contents) -> str:
    """Independent recomputation of a segment's ``content_xor`` lineage
    field: XOR of the first 8 bytes of each document's content SHA-256,
    read little-endian, as 16 hex digits."""
    acc = 0
    for c in contents:
        digest = hashlib.sha256(("" if c is None else str(c)).encode("utf-8")).digest()
        acc ^= int.from_bytes(digest[:8], "little")
    return f"{acc:016x}"


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


# -- statistics ------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    s = sorted(values)
    if not s:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(s)))
    return float(s[min(rank, len(s)) - 1])


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# -- machine speed -------------------------------------------------------------

# median probe time on the reference machine (4-vCPU Intel Xeon VM); the
# scale of normalized times, not a target
REFERENCE_PROBE_S = 0.0025


class SpeedProbe:
    """A fixed pure-Python loop, timed between client ops. The run's
    median probe time against ``REFERENCE_PROBE_S`` is its speed factor:
    on a shared VM the same work takes 20-30% longer or shorter from
    minute to minute, and the probe moves with it (five runs of one seed:
    query rate quartile spread 21% raw, 2% scaled).

    A pure-Python loop because rayfts spends its time in the interpreter:
    over six build and six serve runs in one noisy hour, scaling by this
    loop left build p50 spread 0.105 and serve p50 spread 0.047, against
    0.134 and 0.059 for a loop plus a numpy sort, and 0.178 and 0.274
    unscaled.

    The probe is timed in CPU time of the client thread, not wall time:
    work the program does in its other threads and processes (Ray actors
    and workers share the core) must not slow the probe, or the scaling
    would cancel a regression there. On an idle machine both clocks give
    the same median."""

    EVERY_S = 0.2

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.thread_time()
            x = 0
            for i in range(20000):
                x += i * i % 7
            self.samples.append(time.thread_time() - t0)

    @contextmanager
    def sampling(self):
        """Sample every ``EVERY_S`` from a thread of its own while the
        block runs: a client that blocks for seconds in one call (a bulk
        build) gets samples spread over that call, as a client of short
        ops gets them from ``maybe`` between its ops."""
        stop = threading.Event()

        def loop():
            while not stop.wait(self.EVERY_S):
                self.sample()

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def maybe(self) -> None:
        """Take a sample if ``EVERY_S`` passed since the last one."""
        now = time.perf_counter()
        if now >= self._next:
            self.sample()
            self._next = time.perf_counter() + self.EVERY_S

    @property
    def factor(self) -> float:
        return median(self.samples) / REFERENCE_PROBE_S if self.samples else 1.0


def normalized(values: dict, probe: SpeedProbe) -> dict:
    """End-to-end metrics at reference speed: times divided by the run's
    speed factor, rates multiplied by it; memory unchanged."""
    f = probe.factor
    out = {}
    for name, v in values.items():
        if name == "rate_per_s":
            out[name] = v * f
        elif name == "peak_rss_mb":
            out[name] = v
        else:
            out[name] = v / f
    return out


# -- op recording ------------------------------------------------------------


@dataclass
class Recorder:
    """What one run measured. The client thread appends; the main thread
    reads only after the client thread ended or timed out."""

    attempted: int = 0
    failed: int = 0
    gate_checked: int = 0
    gate_failed: int = 0
    in_flight: str | None = None
    notes: list = field(default_factory=list)

    def op(self, fn, *args, **kwargs):
        """Run one client op; an exception counts it failed (returns None)."""
        self.attempted += 1
        self.in_flight = getattr(fn, "__name__", "op")
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # the client loop must keep running
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"op failed: {type(e).__name__}: {e}")
            return None
        finally:
            self.in_flight = None

    def gate(self, ok: bool, what: str) -> None:
        """One correctness check of a measured op; a mismatch is a failed op."""
        self.gate_checked += 1
        if not ok:
            self.gate_failed += 1
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"gate mismatch: {what}")


# -- memory ------------------------------------------------------------------


def _status_kb(pid: int | str, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _ppid_and_title(pid: str) -> tuple[int, str]:
    with open(f"/proc/{pid}/stat") as f:
        stat = f.read()
    ppid = int(stat[stat.rindex(")") + 2:].split()[1])
    with open(f"/proc/{pid}/cmdline", "rb") as f:
        title = f.read().split(b"\0")[0].decode("utf-8", "replace")
    return ppid, title


def descendants() -> dict[int, str]:
    """pid -> process title of every live descendant of this process."""
    children: dict[int, list[tuple[int, str]]] = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            ppid, title = _ppid_and_title(pid)
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append((int(pid), title))
    out: dict[int, str] = {}
    todo = [os.getpid()]
    while todo:
        for pid, title in children.get(todo.pop(), []):
            if pid not in out:
                out[pid] = title
                todo.append(pid)
    return out


def peak_rss_mb(include_ray_workers: bool) -> float:
    """Peak resident set (VmHWM) of this process, plus that of every Ray
    worker and actor process this run started (their titles start with
    ``ray::``). Ray's own daemons are not counted."""
    kb = _status_kb("self", "VmHWM")
    if include_ray_workers:
        for pid, title in descendants().items():
            if title.startswith("ray::"):
                kb += _status_kb(pid, "VmHWM")
    return kb / 1024.0


def actor_peak_rss_mb(title_prefix: str) -> float:
    """Largest VmHWM among descendant processes titled ``title_prefix``."""
    kbs = [_status_kb(pid, "VmHWM") for pid, title in descendants().items()
           if title.startswith(title_prefix)]
    return max(kbs, default=0) / 1024.0


# -- work directory and Ray session -------------------------------------------


def nproc() -> int:
    """Processing units as GNU ``nproc`` counts them: the CPUs this process
    may run on, overridden by ``OMP_NUM_THREADS`` and capped by
    ``OMP_THREAD_LIMIT``."""
    n = len(os.sched_getaffinity(0))
    threads = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    if threads.isdigit() and int(threads) > 0:
        n = int(threads)
    limit = os.environ.get("OMP_THREAD_LIMIT", "").strip()
    if limit.isdigit() and int(limit) > 0:
        n = min(n, int(limit))
    return n


def pin_to_nproc() -> None:
    """Keep this process, and every process it starts (Ray's daemons,
    workers and actors inherit it), on the last ``nproc()`` CPUs it may
    use. Unpinned on a 4-vCPU VM with ``nproc`` 1, serve p50 ranged from
    20 to 53 ms over eleven runs; pinned, eight runs interleaved with them
    stayed within 26-30 ms. The last CPUs rather than the first: CPU 0
    takes most of the VM's interrupts and housekeeping, and there the
    probe of ``SpeedProbe`` ran 8% slower and five serve runs spread
    more (raw p50 quartile spread 0.058 on CPU 3)."""
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-nproc():])


def work_dir(workload: str) -> str:
    d = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


class RaySession:
    """A local Ray session with ``nproc()`` logical CPUs, with its
    temp files and object store under the work directory. Workers import
    ``rayfts`` and ``perfbench`` from the checkout whatever the cwd is."""

    def __init__(self, work: str):
        import ray

        paths = [REPO_ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        os.environ["PYTHONPATH"] = os.pathsep.join(paths)
        # Ray's AF_UNIX socket paths must fit in 107 bytes, which a deep
        # checkout path does not. The session directory is reached through
        # this process's descriptor of it instead (/proc/<pid>/fd/<n>, a
        # short path that every process Ray starts can resolve), so Ray's
        # files stay inside the checkout wherever it lives.
        temp = os.path.join(work, "ray")
        os.makedirs(temp)
        self._temp_fd = os.open(temp, os.O_RDONLY | os.O_DIRECTORY)
        temp_alias = f"/proc/{os.getpid()}/fd/{self._temp_fd}"
        self._before = set(descendants())
        ray.init(num_cpus=nproc(), include_dashboard=False,
                 log_to_driver=False, logging_level="ERROR",
                 object_store_memory=100 * 2**20, _plasma_directory=work,
                 _temp_dir=temp_alias)
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def close(self) -> None:
        """Shut Ray down and make sure every process it started has ended:
        worker processes and Ray's agents can outlive the raylet for many
        seconds."""
        import ray

        ray.shutdown()
        stop_processes(set(descendants()) - self._before)
        os.close(self._temp_fd)


PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Make processes orphaned below this one re-parent to it instead of
    to init, so ``descendants()`` still finds them: Ray's agents and
    workers lose their parent when the raylet exits first."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print("perfbench: prctl(PR_SET_CHILD_SUBREAPER) failed; orphaned "
              "processes may escape the final clean-up", file=sys.stderr)


def stop_descendants(grace_s: float = 3.0) -> None:
    """Ask every descendant process to end, kill what is left after
    ``grace_s`` and reap it; repeat while new ones appear."""
    for _ in range(5):
        pids = {p for p in descendants() if _alive(p)}
        if not pids:
            return
        for p in pids:
            try:
                os.kill(p, signal.SIGTERM)
            except OSError:
                pass
        stop_processes(pids, grace_s)
    if any(_alive(p) for p in descendants()):
        print("perfbench: some child processes could not be stopped",
              file=sys.stderr)


def stop_processes(pids, grace_s: float = 3.0) -> None:
    """Wait up to ``grace_s`` for ``pids`` to end, kill what is left and
    wait until it is gone."""
    deadline = time.monotonic() + grace_s
    pending = {p for p in pids if _alive(p)}
    while pending and time.monotonic() < deadline:
        time.sleep(0.05)
        pending = {p for p in pending if _alive(p)}
    for p in pending:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 10.0
    while pending and time.monotonic() < deadline:
        time.sleep(0.05)
        pending = {p for p in pending if _alive(p)}


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    if state == "Z":  # ended; reap it if it is our own child
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass
        return False
    return True


class Deadline:
    """Run ``fn`` in a daemon thread and wait at most ``seconds`` for it.
    A hang is reported, not fatal: the caller counts it as failed ops."""

    def __init__(self, fn, seconds: float):
        self.error: BaseException | None = None
        self.result = None

        def target():
            try:
                self.result = fn()
            except BaseException as e:  # handed to the main thread
                self.error = e

        self.thread = threading.Thread(target=target, daemon=True)
        self.thread.start()
        self.thread.join(max(seconds, 0.0))
        self.timed_out = self.thread.is_alive()
