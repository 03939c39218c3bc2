"""Continuous sampling profiler: stdlib-only, span-attributed stacks.

A daemon thread wakes ``hz`` times per second, walks
``sys._current_frames()`` and appends one sample per live thread into a
bounded ring of :data:`DEFAULT_SAMPLE_CAPACITY` samples (a
:class:`~repro.obs.trace.Tracer`, the span ring's class).  Each sample
carries the thread's stack (root→leaf ``file:function`` frames) *and*
the innermost open :func:`repro.obs.span` of that thread — read through
the ``_ACTIVE_SPANS`` side registry :mod:`repro.obs.trace` maintains,
because a sampler thread cannot read another thread's contextvars.
That attribution is what turns a flat flamegraph into "time inside
``blocked.count`` vs time inside ``engine.execute``".

Worker processes (the shared-memory executor pool) run their own
sampler — :func:`maybe_resume_worker` restarts one after ``fork``
because threads do not survive it — and their samples ride the existing
metric-delta result path under :data:`repro.obs.PROFILE_DELTA_KEY`,
re-homed under the dispatching span by :func:`adopt_samples` exactly
like worker span records.

The export format is dependency-free: :func:`collapsed_stacks` writes
the ``frame;frame;frame count`` text that ``flamegraph.pl``, speedscope
(https://speedscope.app, "Import") and ``inferno`` consume directly;
the attributed span is the root frame (``span:blocked.count;...``).

Overhead budget: at the default :data:`DEFAULT_PROFILE_HZ` one pass
costs on the order of 100 µs even with deep stacks, so the profiled
process pays well under the 5% acceptance bar; pass cost × rate is
checked by ``tests/test_profile.py::TestOverheadBudget``.  Like every obs feature the profiler is
**off unless observability is on**: :func:`start_profiler` is a no-op
(returns None, starts no thread) while ``obs`` is disabled or
force-disabled via ``REPRO_OBS=0``.
"""

from __future__ import annotations

import os
import sys
import threading
import time

from repro.obs.trace import _ACTIVE_SPANS, Tracer

__all__ = [
    "DEFAULT_PROFILE_HZ",
    "DEFAULT_SAMPLE_CAPACITY",
    "MAX_STACK_DEPTH",
    "Profiler",
    "start_profiler",
    "stop_profiler",
    "maybe_resume_worker",
    "samples",
    "drain_samples",
    "clear_samples",
    "ingest_samples",
    "adopt_samples",
    "swap_buffer",
    "collapsed_stacks",
    "parse_collapsed",
    "write_collapsed",
    "aggregate_frames",
    "render_profile_report",
]

#: Default sampling rate.  67 Hz ≈ one sample per 15 ms — enough to see
#: any phase that matters at bench scale, far below the overhead bar,
#: and deliberately *not* a divisor of common timer frequencies so the
#: sampler does not phase-lock with periodic work.
DEFAULT_PROFILE_HZ = 67

#: Default bounded sample capacity: at 67 Hz this holds ~8 minutes of a
#: single-threaded profile before the ring starts dropping oldest-first.
DEFAULT_SAMPLE_CAPACITY = 1 << 15

#: Frames kept per sample (leaf-most first during the walk); deeper
#: stacks truncate at the root end.
MAX_STACK_DEPTH = 64

#: The sampler thread's name — tests (and ``threading.enumerate()``
#: spelunking) identify it by this.
PROFILE_THREAD_NAME = "repro-obs-profiler"


def _frame_stack(frame) -> list[str]:
    """Root→leaf list of ``file:function`` strings for one frame chain."""
    out: list[str] = []
    depth = 0
    while frame is not None and depth < MAX_STACK_DEPTH:
        code = frame.f_code
        out.append(f"{os.path.basename(code.co_filename)}:{code.co_name}")
        frame = frame.f_back
        depth += 1
    out.reverse()
    return out


class Profiler:
    """The background sampler; prefer :func:`start_profiler` over direct use.

    ``want_running`` (not just the live thread handle) is the state that
    survives ``fork``: a worker process inherits the module-level
    profiler object with ``want_running=True`` but a dead thread, which
    is exactly the signal :func:`maybe_resume_worker` keys off.
    """

    def __init__(
        self,
        hz: float = DEFAULT_PROFILE_HZ,
        capacity: int = DEFAULT_SAMPLE_CAPACITY,
    ) -> None:
        if not hz > 0:
            raise ValueError(f"hz must be positive, got {hz}")
        self.hz = float(hz)
        self.interval = 1.0 / self.hz
        self.capacity = int(capacity)
        self.pid = os.getpid()
        #: Intent flag (fork-visible); the thread itself does not survive.
        self.want_running = False
        #: Samples taken by this profiler instance.
        self.sampled = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "Profiler":
        if self.running:  # pragma: no cover - idempotence guard
            return self
        self._stop.clear()
        self.want_running = True
        self._thread = threading.Thread(
            target=self._run, name=PROFILE_THREAD_NAME, daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 2.0) -> "Profiler":
        self.want_running = False
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)
        self._thread = None
        return self

    # ------------------------------------------------------------------
    def _run(self) -> None:
        own_tid = threading.get_ident()
        while not self._stop.wait(self.interval):
            self._sample(own_tid)

    def _sample(self, own_tid: int) -> None:
        """One pass over every live thread's current frame."""
        now = time.perf_counter()
        buffer = _BUFFER
        for tid, frame in sys._current_frames().items():
            if tid == own_tid:
                continue
            sample = {
                "ts": now,
                "pid": self.pid,
                "tid": tid,
                "stack": _frame_stack(frame),
                "span": None,
                "span_id": None,
                "trace_id": None,
            }
            sp = _ACTIVE_SPANS.get(tid)
            if sp is not None:
                sample["span"] = sp.name
                sample["span_id"] = sp.span_id
                sample["trace_id"] = sp.trace_id
            buffer.record(sample)
            self.sampled += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else "stopped"
        return f"Profiler(hz={self.hz}, {state}, sampled={self.sampled})"


#: The process-wide sample ring every sampler writes into (swapped by
#: ``obs.capture()`` for hermetic tests, replaced after ``fork``).
_BUFFER = Tracer(DEFAULT_SAMPLE_CAPACITY)

#: The process-wide profiler handle (None until :func:`start_profiler`).
_PROFILER: Profiler | None = None


# ----------------------------------------------------------------------
# module-level lifecycle
# ----------------------------------------------------------------------
def start_profiler(
    hz: float | None = None, capacity: int | None = None
) -> Profiler | None:
    """Start (or return) the process profiler; None while obs is disabled.

    The no-op contract matters: with observability off (including
    ``REPRO_OBS=0`` force-off) this returns None without constructing a
    thread, so the disabled path stays disabled all the way down.
    """
    import repro.obs as _obs

    if not _obs._enabled:
        return None
    global _PROFILER
    current = _PROFILER
    if (
        current is not None
        and current.pid == os.getpid()
        and current.running
    ):
        return current
    prof = Profiler(
        hz=hz if hz is not None else DEFAULT_PROFILE_HZ,
        capacity=capacity if capacity is not None else DEFAULT_SAMPLE_CAPACITY,
    )
    prof.start()
    _PROFILER = prof
    return prof


def stop_profiler() -> Profiler | None:
    """Stop the process profiler (if any) and return its handle."""
    global _PROFILER
    prof = _PROFILER
    if prof is not None:
        prof.stop()
    _PROFILER = None
    return prof


def maybe_resume_worker() -> Profiler | None:
    """Restart sampling inside a forked worker whose parent was profiling.

    ``fork`` copies the module state (the profiler handle, its
    ``want_running`` intent, hz) but not the sampler thread.  The
    executor's per-task collect hook calls this: if the inherited handle
    says the owner wanted profiling, the worker starts a *fresh*
    profiler and a fresh sample ring (the inherited ring —
    and, worse, its possibly-mid-acquire lock — belongs to the parent).
    No-op in the owner process and when nothing was running.
    """
    import repro.obs as _obs

    if not _obs._enabled:
        return None
    global _PROFILER, _BUFFER
    prof = _PROFILER
    if prof is None or not prof.want_running:
        return None
    if prof.pid == os.getpid():
        return prof
    _BUFFER = Tracer(prof.capacity)
    fresh = Profiler(hz=prof.hz, capacity=prof.capacity)
    fresh.start()
    _PROFILER = fresh
    return fresh


# ----------------------------------------------------------------------
# buffer access + cross-process transport
# ----------------------------------------------------------------------
def samples() -> list[dict]:
    """Snapshot list (oldest first) of the buffered samples."""
    return _BUFFER.records()


def drain_samples() -> list[dict]:
    """Pop every buffered sample — what :func:`repro.obs.worker_delta` ships."""
    return _BUFFER.drain()


def clear_samples() -> None:
    """Drop every buffered sample (part of ``obs.reset()``)."""
    _BUFFER.clear()


def swap_buffer(buffer: Tracer) -> Tracer:
    """Swap the live sample ring, returning the previous one.

    ``obs.capture()`` uses this so profile samples are as hermetic as
    metrics and spans inside a capture block.
    """
    global _BUFFER
    previous = _BUFFER
    _BUFFER = buffer
    return previous


def adopt_samples(
    records: list[dict], parent: tuple[str, str] | None
) -> list[dict]:
    """Re-home a worker's samples under an owner-side dispatching span.

    Mirrors :func:`repro.obs.trace.adopt_spans`: every sample's
    ``trace_id`` becomes the owner's, and samples that landed outside
    any worker span are attributed to the dispatch span itself, so no
    worker time escapes the tree.
    """
    if not records:
        return []
    out = []
    for r in records:
        r = dict(r)
        if parent is not None:
            r["trace_id"] = parent[0]
            if r.get("span_id") is None:
                r["span_id"] = parent[1]
        out.append(r)
    return out


def ingest_samples(
    records: list[dict], parent: tuple[str, str] | None = None
) -> None:
    """Fold adopted worker samples into the live buffer (owner side).

    Like ``obs.merge_snapshot`` this is *not* gated on the enabled flag:
    the owner chose to collect when it dispatched.
    """
    _BUFFER.extend(adopt_samples(records, parent))


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def _clean_frame(frame: str) -> str:
    """Make a frame safe for the collapsed format (no ``;``, no spaces)."""
    return frame.replace(";", ":").replace(" ", "_")


def collapsed_stacks(records: list[dict]) -> str:
    """Samples → collapsed-stack text (``root;child;leaf count`` lines).

    The format ``flamegraph.pl`` and speedscope ingest directly.  The
    attributed span becomes the root frame (``span:<name>``); samples
    without an open span root at ``process``.  Lines sort
    lexicographically so equal sample sets render byte-identically.
    """
    counts: dict[str, int] = {}
    for s in records:
        root = f"span:{s['span']}" if s.get("span") else "process"
        frames = [_clean_frame(f) for f in s.get("stack") or ()]
        key = ";".join([_clean_frame(root)] + frames)
        counts[key] = counts.get(key, 0) + 1
    if not counts:
        return ""
    return "\n".join(f"{k} {v}" for k, v in sorted(counts.items())) + "\n"


def parse_collapsed(text: str) -> dict[str, int]:
    """Collapsed-stack text → ``{stack: count}`` (strict inverse).

    Raises ``ValueError`` on a malformed line — the schema test feeds
    :func:`collapsed_stacks` output through this to pin the format.
    """
    counts: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        stack, sep, count = line.rpartition(" ")
        if not sep or not stack or not count.isdigit():
            raise ValueError(f"malformed collapsed-stack line {lineno}: {line!r}")
        counts[stack] = counts.get(stack, 0) + int(count)
    return counts


def write_collapsed(path, records: list[dict] | None = None) -> str:
    """Write collapsed-stack text for ``records`` (default: live buffer)."""
    text = collapsed_stacks(samples() if records is None else records)
    with open(path, "w") as fh:
        fh.write(text)
    return text


# ----------------------------------------------------------------------
# report rendering (the ``profile`` CLI subcommand)
# ----------------------------------------------------------------------
def aggregate_frames(counts: dict[str, int]) -> list[tuple[str, int, int]]:
    """Collapsed counts → ``[(frame, self_count, total_count), ...]``.

    ``self`` counts stacks where the frame is the leaf; ``total`` counts
    stacks containing the frame anywhere (once per stack, so recursion
    does not double-count).  Sorted by descending total, then name.
    """
    self_counts: dict[str, int] = {}
    total_counts: dict[str, int] = {}
    for stack, n in counts.items():
        frames = stack.split(";")
        self_counts[frames[-1]] = self_counts.get(frames[-1], 0) + n
        for frame in set(frames):
            total_counts[frame] = total_counts.get(frame, 0) + n
    return sorted(
        (
            (frame, self_counts.get(frame, 0), total)
            for frame, total in total_counts.items()
        ),
        key=lambda row: (-row[2], row[0]),
    )


def render_profile_report(counts: dict[str, int], top: int = 20) -> str:
    """Human table of the hottest frames in a collapsed-stack profile."""
    n = sum(counts.values())
    lines = [
        f"profile: {n} samples over {len(counts)} unique stacks",
    ]
    if not n:
        return lines[0]
    lines.append(f"{'total':>7}  {'self':>7}  frame")
    for frame, self_n, total_n in aggregate_frames(counts)[:top]:
        lines.append(
            f"{100.0 * total_n / n:6.1f}%  {100.0 * self_n / n:6.1f}%  {frame}"
        )
    return "\n".join(lines)
