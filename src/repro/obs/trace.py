"""Hierarchical tracing: spans with trace/span ids, parents, attributes.

PR 2's :func:`repro.obs.span` recorded *flat* aggregates — ``name.calls``
and ``name.seconds`` — which answer "how much" but not "where inside one
invariant sweep / peeling round / executor dispatch".  This module adds
the missing structure without changing a single call site:

- :class:`Span` is what :func:`repro.obs.span` now returns when
  observability is enabled.  It still records the same two flat metrics
  on exit (so every PR-2 assertion keeps passing), *and* it captures a
  trace node: ``trace_id`` / ``span_id`` / ``parent_id`` (the enclosing
  span, carried through :mod:`contextvars`), wall-clock-free monotonic
  timestamps, free-form attributes and point-in-time events, and a
  terminal status (``ok`` / ``error`` / ``aborted``).
- Completed span records land in a bounded ring buffer
  (:class:`Tracer`): constant memory no matter how long a peel or bench
  run goes, oldest records dropped first (``dropped`` counts them).
- Worker processes trace into their *own* tracer; the executor drains
  the records into the task's metric delta (the existing shm result
  path) and the owner re-parents them under the dispatching span with
  :func:`adopt_spans` — so a cross-process trace renders as one tree.

Timestamps are ``time.perf_counter()`` seconds.  Under the fork start
method (the only one the shared-memory executor uses on Linux) that is
``CLOCK_MONOTONIC``, which is system-wide — worker timestamps are
directly comparable to the owner's, no rebasing needed.

The disabled path never reaches this module: :func:`repro.obs.span`
returns its shared no-op object before any ``Span`` is constructed.
"""

from __future__ import annotations

import itertools
import os
import threading
import time as _time
from collections import deque
from contextvars import ContextVar

__all__ = [
    "Span",
    "Tracer",
    "adopt_spans",
    "span_tree",
    "DEFAULT_TRACE_CAPACITY",
]

#: Ring-buffer capacity of a fresh :class:`Tracer` — bounds trace memory
#: for arbitrarily long runs (records are small dicts; 2¹⁶ of them is a
#: few tens of MB worst-case, typically far less).
DEFAULT_TRACE_CAPACITY = 1 << 16

#: The enclosing span of the current logical context (None at top level).
_CURRENT: ContextVar["Span | None"] = ContextVar("repro_obs_span", default=None)

#: thread ident → innermost live span of that thread.  A ``ContextVar``
#: is only readable from its own thread, but the sampling profiler
#: (:mod:`repro.obs.profile`) attributes stacks from a *different*
#: thread — so spans also maintain this side registry on enter/exit.
#: Plain dict: single-key mutations are atomic under the GIL, and each
#: key is only ever written by its own thread.
_ACTIVE_SPANS: dict[int, "Span"] = {}

#: Monotone per-process id source; combined with the pid so ids minted in
#: forked workers (which inherit the counter state) never collide.
_IDS = itertools.count(1)


def _new_id() -> str:
    return f"{os.getpid():x}-{next(_IDS):x}"


class Tracer:
    """Thread-safe bounded ring buffer of plain-dict records.

    Records are picklable (they ride the worker result path).  The span
    ring holds completed span records (``trace_id, span_id, parent_id,
    name, ts, dur, pid, tid, status, attrs``); the profiler's sample
    ring (:mod:`repro.obs.profile`) is the same class.
    """

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._buf: deque = deque(maxlen=self.capacity)
        #: Completed records evicted by the ring bound.
        self.dropped = 0

    def record(self, record: dict) -> None:
        with self._lock:
            if len(self._buf) == self.capacity:
                self.dropped += 1
            self._buf.append(record)

    def records(self) -> list[dict]:
        """A snapshot list (oldest first) of the buffered records."""
        with self._lock:
            return list(self._buf)

    def drain(self) -> list[dict]:
        """Pop and return every buffered record (the worker-delta path)."""
        with self._lock:
            out = list(self._buf)
            self._buf.clear()
            return out

    def extend(self, records) -> None:
        """Ingest already-completed records (e.g. adopted worker spans)."""
        with self._lock:
            for record in records:
                if len(self._buf) == self.capacity:
                    self.dropped += 1
                self._buf.append(record)

    def clear(self) -> None:
        with self._lock:
            self._buf.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._buf)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer({len(self)}/{self.capacity} records, dropped={self.dropped})"


class Span:
    """One timed, attributed node of a trace tree.

    Returned by :func:`repro.obs.span` when observability is enabled; use
    as a context manager.  On ``__exit__`` it records the PR-2 flat
    metrics (``<name>.calls`` + ``<name>.seconds``) *and* appends its
    trace record to the live tracer — unless observability was disabled
    inside the span, preserving the documented "re-check at exit"
    semantics.

    The parent link is read from (and the span installed into) a
    ``contextvars`` variable, so nesting follows lexical ``with`` nesting
    per thread/context with zero bookkeeping at the call sites.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attrs",
        "status",
        "ts",
        "dur",
        "pid",
        "tid",
        "_token",
        "_prev_active",
    )

    def __init__(self, name: str, attrs: dict | None = None) -> None:
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.status = "ok"
        self.span_id = _new_id()
        self.trace_id = ""
        self.parent_id = None
        self.ts = 0.0
        self.dur = 0.0
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self._token = None
        self._prev_active = None

    # ------------------------------------------------------------------
    # enrichment API (all safe on the no-op twin in repro.obs)
    # ------------------------------------------------------------------
    def set_attributes(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def abort(self) -> "Span":
        """Mark the span aborted (worker death, cancelled dispatch)."""
        self.attrs["aborted"] = True
        self.status = "aborted"
        return self

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        parent = _CURRENT.get()
        if parent is not None:
            self.parent_id = parent.span_id
            self.trace_id = parent.trace_id
        else:
            self.trace_id = _new_id()
        self._token = _CURRENT.set(self)
        self._prev_active = _ACTIVE_SPANS.get(self.tid)
        _ACTIVE_SPANS[self.tid] = self
        self.ts = _time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.dur = _time.perf_counter() - self.ts
        if self._prev_active is not None:
            _ACTIVE_SPANS[self.tid] = self._prev_active
        else:
            _ACTIVE_SPANS.pop(self.tid, None)
        self._prev_active = None
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if exc_type is not None and self.status == "ok":
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        elif self.attrs.get("aborted"):
            self.status = "aborted"
        # late import: repro.obs imports this module at package init, and
        # capture()/reset() rebind the live registry + tracer — resolving
        # them at exit time keeps spans hermetic under obs.capture().
        import repro.obs as _obs

        # re-check: obs may have been disabled inside the span
        if _obs._enabled:
            _obs._REGISTRY.inc(self.name + ".calls")
            _obs._REGISTRY.observe(self.name + ".seconds", self.dur)
            _obs._TRACER.record(self.to_dict())
        return False

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The picklable trace record this span contributes."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "ts": self.ts,
            "dur": self.dur,
            "pid": self.pid,
            "tid": self.tid,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, status={self.status})"
        )


# ----------------------------------------------------------------------
# cross-process adoption + tree utilities
# ----------------------------------------------------------------------
def adopt_spans(
    records: list[dict],
    parent: tuple[str, str] | None,
) -> list[dict]:
    """Re-parent a worker's span records under an owner-side span.

    ``parent`` is ``(trace_id, span_id)`` of the dispatching span (or
    None to adopt as independent roots).  Every record's ``trace_id`` is
    rewritten to the owner's, and records whose parent is *not* among the
    shipped records (the worker-side roots) get the dispatch span as
    parent — interior parent links are preserved, so the worker subtree
    arrives intact.
    """
    if not records:
        return []
    local_ids = {r["span_id"] for r in records}
    out = []
    for r in records:
        r = dict(r)
        if parent is not None:
            r["trace_id"] = parent[0]
            if r.get("parent_id") not in local_ids:
                r["parent_id"] = parent[1]
        r.setdefault("attrs", {})
        r["attrs"].setdefault("worker_pid", r.get("pid"))
        out.append(r)
    return out


def span_tree(records: list[dict]) -> dict:
    """Index a record list as ``{span_id: [child records...]}`` plus roots.

    Returns ``{"roots": [...], "children": {span_id: [...]}}`` — the
    shape the well-formedness tests (and the exporters) consume.  A
    record whose ``parent_id`` is None *or* unresolvable is a root.
    """
    by_id = {r["span_id"]: r for r in records}
    children: dict[str, list[dict]] = {}
    roots: list[dict] = []
    for r in records:
        pid = r.get("parent_id")
        if pid is not None and pid in by_id:
            children.setdefault(pid, []).append(r)
        else:
            roots.append(r)
    return {"roots": roots, "children": children}
