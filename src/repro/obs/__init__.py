"""repro.obs — zero-dependency observability (metrics, spans, traces).

One process-wide :class:`Metrics` registry plus one process-wide
:class:`~repro.obs.trace.Tracer` ring buffer, mutated through
module-level helpers that compile down to *one attribute load and one
branch* when observability is off — the hot kernels call these directly,
so the disabled path must cost nothing measurable (the end-to-end
benchmark's ``trace.overhead_ratio.*`` layers measure what enabling
costs).

Usage::

    from repro import obs

    obs.enable()                        # or REPRO_OBS=1 in the environment
    with obs.span("blocked.count", invariant=2) as sp:
        sp.add_event("panel", lo=0, hi=64)   # -> a node in the trace tree
        ...                             # -> blocked.count.{calls,seconds}
    obs.inc("kernels.panel.wedges", endpoints.size)
    obs.gauge("peel.tip.kept", int(kept.sum()), policy="sum")

    print(obs.render())                 # human table
    obs.dump_jsonl("metrics.jsonl")     # one JSON line per metric
    obs.dump_trace("trace.json")        # Chrome trace-event / Perfetto

State model
-----------
- **Off by default.**  ``obs.enable()`` / ``REPRO_OBS=1`` turn recording
  on; ``REPRO_OBS=0`` *force-disables* it (``enable()`` becomes a no-op)
  so a benchmark run can pin the no-op path regardless of what the code
  under test does.
- :func:`disabled` is a context manager forcing the no-op path for a
  region — the documented way to exclude a section from measurement.
- :func:`capture` swaps in a **fresh registry and a fresh tracer**,
  enables, and yields the registry; tests use it to observe a workload
  hermetically (read the trace via :func:`trace_records` inside the
  block).

Tracing
-------
:func:`span` upgraded in place in PR 3: the same call sites that used to
produce only flat ``name.calls``/``name.seconds`` aggregates now *also*
yield a :class:`~repro.obs.trace.Span` — trace/span ids, the enclosing
span as parent (``contextvars``-propagated), attributes, events and a
terminal status — recorded into a bounded ring buffer on exit.  Worker
processes ship their span records back inside the metric delta
(:func:`worker_delta`) and the owner re-parents them under the
dispatching span via :func:`merge_snapshot`, so one parallel count
renders as a single tree in Perfetto.

Worker processes (the shared-memory executor pool) accumulate into their
own registry and return a :func:`worker_delta` through the existing
result path; the owner folds it back with :func:`merge_snapshot` — see
``repro/parallel/executor.py``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.obs.metrics import GAUGE_POLICIES, Counter, Gauge, Histogram, Metrics
from repro.obs.trace import (
    Span,
    Tracer,
    adopt_spans,
    current_span,
    span_tree,
)

if TYPE_CHECKING:
    from repro.obs.profile import Profiler

# sinks (its run ids import ``secrets``, hence hmac and hashlib), the
# sampling profiler and the Chrome exporter load on first use: a run
# that records nothing never imports them
_LAZY = {
    "JsonlSink": "repro.obs.sinks",
    "MemorySink": "repro.obs.sinks",
    "flush": "repro.obs.sinks",
    "jsonl_runs": "repro.obs.sinks",
    "read_jsonl": "repro.obs.sinks",
    "render_table": "repro.obs.sinks",
    "snapshot_records": "repro.obs.sinks",
    "DEFAULT_PROFILE_HZ": "repro.obs.profile",
    "Profiler": "repro.obs.profile",
    "SampleBuffer": "repro.obs.profile",
    "collapsed_stacks": "repro.obs.profile",
    "parse_collapsed": "repro.obs.profile",
    "chrome_trace": "repro.obs.export",
    "write_chrome_trace": "repro.obs.export",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())

__all__ = [
    "Metrics",
    "Counter",
    "Gauge",
    "Histogram",
    "GAUGE_POLICIES",
    "Span",
    "Tracer",
    "MemorySink",
    "JsonlSink",
    "read_jsonl",
    "jsonl_runs",
    "render_table",
    "chrome_trace",
    "write_chrome_trace",
    "snapshot_records",
    "flush",
    "enable",
    "disable",
    "is_enabled",
    "disabled",
    "capture",
    "inc",
    "observe",
    "gauge",
    "span",
    "current_span",
    "span_tree",
    "registry",
    "tracer",
    "trace_records",
    "clear_trace",
    "snapshot",
    "worker_delta",
    "merge_snapshot",
    "reset",
    "render",
    "dump_jsonl",
    "dump_trace",
    "Profiler",
    "SampleBuffer",
    "DEFAULT_PROFILE_HZ",
    "start_profiler",
    "stop_profiler",
    "profile_samples",
    "dump_profile",
    "collapsed_stacks",
    "parse_collapsed",
]

#: ``REPRO_OBS=0`` pins the no-op path for the whole process (benchmarks).
_FORCED_OFF = os.environ.get("REPRO_OBS", "").strip().lower() in (
    "0", "false", "off", "no",
)

#: THE hot-path flag.  Kernels read this module attribute directly
#: (``if obs._enabled:``) — one dict lookup + branch on the no-op path.
_enabled: bool = (not _FORCED_OFF) and os.environ.get(
    "REPRO_OBS", ""
).strip().lower() in ("1", "true", "on", "yes")

#: The process-wide registry every helper writes to.
_REGISTRY = Metrics()

#: The process-wide span ring buffer (bounded; see trace.Tracer).
_TRACER = Tracer()

#: Reserved key carrying span records inside a worker's metric delta.
TRACE_DELTA_KEY = "__trace__"

#: Reserved key carrying profile samples inside a worker's metric delta.
PROFILE_DELTA_KEY = "__profile__"


# ----------------------------------------------------------------------
# state control
# ----------------------------------------------------------------------
def enable() -> None:
    """Turn recording on (no-op while force-disabled via ``REPRO_OBS=0``)."""
    global _enabled
    if not _FORCED_OFF:
        _enabled = True


def disable() -> None:
    """Turn recording off (the helpers become no-ops)."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    return _enabled


@contextmanager
def disabled():
    """Force the no-op path within the block, restoring the prior state."""
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous


@contextmanager
def capture():
    """Enable recording onto a *fresh* registry (and tracer) and yield it.

    Restores the previous registry, tracer and enablement on exit; the
    hermetic harness the test-suite uses::

        with obs.capture() as metrics:
            count_butterflies_blocked(g)
            spans = obs.trace_records()     # read the trace inside
        assert metrics.value("blocked.panels") > 0
    """
    from repro.obs import profile

    global _enabled, _REGISTRY, _TRACER
    previous_registry, previous_enabled = _REGISTRY, _enabled
    previous_tracer = _TRACER
    fresh = Metrics()
    _REGISTRY = fresh
    _TRACER = Tracer()
    previous_samples = profile.swap_buffer(profile.SampleBuffer())
    if not _FORCED_OFF:
        _enabled = True
    try:
        yield fresh
    finally:
        _REGISTRY = previous_registry
        _TRACER = previous_tracer
        profile.swap_buffer(previous_samples)
        _enabled = previous_enabled


# ----------------------------------------------------------------------
# recording helpers (no-ops when disabled)
# ----------------------------------------------------------------------
def inc(name: str, value: int = 1) -> None:
    """Add ``value`` to the counter ``name`` (no-op when disabled)."""
    if _enabled:
        _REGISTRY.inc(name, value)


def observe(name: str, value) -> None:
    """Record one sample into the histogram ``name`` (no-op when disabled)."""
    if _enabled:
        _REGISTRY.observe(name, value)


def gauge(name: str, value, policy: str | None = None) -> None:
    """Set the gauge ``name`` (no-op when disabled).

    ``policy`` (``"last"``/``"max"``/``"sum"``; default ``"last"``)
    binds the gauge's cross-snapshot merge semantics at creation — see
    :class:`~repro.obs.metrics.Gauge`.
    """
    if _enabled:
        _REGISTRY.set(name, value, policy=policy)


class _NoopSpan:
    """Shared, stateless no-op twin of :class:`Span` for the disabled path."""

    __slots__ = ()

    name = ""
    trace_id = ""
    span_id = None
    parent_id = None
    status = "ok"

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set_attribute(self, key, value):
        return self

    def set_attributes(self, **attrs):
        return self

    def add_event(self, name, **attrs):
        return self

    def abort(self):
        return self


_NOOP_SPAN = _NoopSpan()


def span(name: str, **attrs):
    """Context manager timing a region into ``name.calls``/``name.seconds``
    *and* (since PR 3) recording a trace node.

    Returns a shared no-op object when disabled, so the disabled cost is
    one call + one branch.  When enabled, yields a
    :class:`~repro.obs.trace.Span`: the enclosing span becomes its
    parent (``contextvars``-propagated, so nesting follows ``with``
    nesting), ``attrs`` seed its attributes, and
    ``set_attribute``/``add_event``/``abort`` enrich it before the exit
    records both the flat metrics and the trace record.  Spans nest
    freely and are thread-safe: state lives on the span instance,
    aggregation goes through the locked registry and ring buffer.
    """
    if not _enabled:
        return _NOOP_SPAN
    return Span(name, attrs)


# ----------------------------------------------------------------------
# registry / tracer access + transport
# ----------------------------------------------------------------------
def registry() -> Metrics:
    """The live process-wide registry."""
    return _REGISTRY


def tracer() -> Tracer:
    """The live process-wide span ring buffer."""
    return _TRACER


def trace_records() -> list[dict]:
    """Snapshot list (oldest first) of the completed span records."""
    return _TRACER.records()


def clear_trace() -> None:
    """Drop every buffered span record."""
    _TRACER.clear()


def snapshot() -> dict[str, dict]:
    """Plain-dict copy of the registry (picklable worker delta)."""
    return _REGISTRY.snapshot()


def worker_delta() -> dict[str, dict]:
    """A worker task's full delta: metric snapshot + drained span records.

    The span records travel under the reserved :data:`TRACE_DELTA_KEY`
    key and profile samples under :data:`PROFILE_DELTA_KEY` (both
    drained, so consecutive tasks in one worker ship disjoint windows);
    :func:`merge_snapshot` pops them back out on the owner side.
    """
    from repro.obs import profile

    delta = _REGISTRY.snapshot()
    spans = _TRACER.drain()
    if spans:
        delta[TRACE_DELTA_KEY] = {"type": "spans", "spans": spans}
    sampled = profile.drain_samples()
    if sampled:
        delta[PROFILE_DELTA_KEY] = {"type": "profile", "samples": sampled}
    return delta


def merge_snapshot(
    delta: dict[str, dict],
    parent: tuple[str, str] | None = None,
) -> None:
    """Fold a worker's delta into the process registry (and trace).

    Unlike the recording helpers this is **not** gated on ``_enabled``:
    the owner decided to collect when it dispatched the tasks, and the
    deltas must land even if recording was toggled meanwhile.

    ``parent`` is the ``(trace_id, span_id)`` of the dispatching span;
    span records shipped inside the delta are re-parented under it (see
    :func:`repro.obs.trace.adopt_spans`) so cross-process traces render
    as one tree.
    """
    trace_part = delta.get(TRACE_DELTA_KEY)
    profile_part = delta.get(PROFILE_DELTA_KEY)
    if trace_part is not None or profile_part is not None:
        delta = {
            k: v
            for k, v in delta.items()
            if k not in (TRACE_DELTA_KEY, PROFILE_DELTA_KEY)
        }
    if trace_part is not None:
        _TRACER.extend(adopt_spans(trace_part.get("spans", []), parent))
    if profile_part is not None:
        from repro.obs import profile

        profile.ingest_samples(profile_part.get("samples", []), parent)
    _REGISTRY.merge(delta)


def reset() -> None:
    """Clear the registry, the span ring buffer and the profile samples."""
    from repro.obs import profile

    _REGISTRY.reset()
    _TRACER.clear()
    profile.clear_samples()


def render(title: str | None = None) -> str:
    """Human table of the current registry."""
    from repro.obs.sinks import render_table

    return render_table(_REGISTRY, title=title)


def dump_jsonl(path, run: str | None = None, **meta) -> list[dict]:
    """Append the current registry to ``path`` as JSON lines."""
    from repro.obs.sinks import JsonlSink, flush

    return flush(_REGISTRY, JsonlSink(path), run=run, **meta)


def dump_trace(path, **meta) -> dict:
    """Write the buffered trace as Chrome trace-event JSON to ``path``.

    Load the file at https://ui.perfetto.dev or ``chrome://tracing``.
    Returns the written payload (``{"traceEvents": [...], ...}``).
    """
    from repro.obs.export import write_chrome_trace

    if _TRACER.dropped:
        meta.setdefault("dropped_spans", _TRACER.dropped)
    return write_chrome_trace(path, _TRACER.records(), **meta)


# ----------------------------------------------------------------------
# sampling profiler (see repro/obs/profile.py)
# ----------------------------------------------------------------------
def start_profiler(hz: float | None = None) -> Profiler | None:
    """Start the background sampling profiler (None while disabled).

    No thread is constructed on the disabled path — ``REPRO_OBS=0``
    renders this a true no-op.  Samples attribute to the innermost open
    :func:`span` of each thread; read them back with
    :func:`profile_samples` or export via :func:`dump_profile`.
    """
    if not _enabled:  # not even the profiler module loads
        return None
    from repro.obs import profile

    return profile.start_profiler(hz=hz)


def stop_profiler() -> Profiler | None:
    """Stop the background sampling profiler, returning its handle."""
    from repro.obs import profile

    return profile.stop_profiler()


def profile_samples() -> list[dict]:
    """Snapshot list (oldest first) of the buffered profile samples."""
    from repro.obs import profile

    return profile.samples()


def dump_profile(path) -> str:
    """Write the buffered samples to ``path`` as collapsed-stack text.

    The format ``flamegraph.pl`` and https://speedscope.app ingest
    directly; returns the written text.
    """
    from repro.obs import profile

    return profile.write_collapsed(path)
