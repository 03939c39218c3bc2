"""Timing primitives shared by run.py and the trial children (stdlib only).

Spans are recorded on ``time.perf_counter()``, which on Linux reads
CLOCK_MONOTONIC, a clock every process on the host shares; that is what
lets run.py place a child process's spans under its own op span.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import time
from contextlib import contextmanager

#: time of one :func:`probe_host` kernel on the reference host (2-vCPU
#: x86_64 Xeon VM at 2.1 GHz, Python 3.11), seconds: the median over 120
#: trials of the probe time at the trial's mean speed over CPUs
PROBE_REF_S = 0.0122

_PROBE_LIST = list(range(40_000))
random.Random(0).shuffle(_PROBE_LIST)


def _probe_kernel() -> float:
    t = time.perf_counter()
    sorted(_PROBE_LIST)
    total = 0
    for i in range(120_000):
        total += i
    return time.perf_counter() - t


def probe_host(reps: int, into: dict[int, list[float]] | None = None) -> dict[int, list[float]]:
    """Run a fixed, benchmark-owned CPU kernel ``reps`` times on every CPU.

    Returns (or extends ``into``) CPU -> wall times.  The kernel (sort a
    shuffled list, then an integer loop) never touches the program, so its
    time moves only with the host: the clock, and the share of a core and
    its caches that other tenants leave over.  That share differs between
    the CPUs of a shared VM, so the caller is pinned to each CPU in turn
    and then given back its former affinity, which processes it starts
    later inherit.
    """
    into = {} if into is None else into
    pinnable = hasattr(os, "sched_getaffinity")
    cpus = sorted(os.sched_getaffinity(0)) if pinnable else [-1]
    try:
        for cpu in cpus:
            if pinnable:
                os.sched_setaffinity(0, {cpu})
            into.setdefault(cpu, []).extend(_probe_kernel() for _ in range(reps))
    finally:
        if pinnable:
            os.sched_setaffinity(0, cpus)
    return into


def host_slowdown(probes: dict[int, list[float]]) -> float:
    """How much slower than the reference host the CPUs ran the probe.

    Each CPU's speed is ``PROBE_REF_S`` over its median probe time; the
    slowdown is one over the CPUs' mean speed.
    """
    return 1.0 / statistics.mean(PROBE_REF_S / statistics.median(v) for v in probes.values())


class Tracer:
    """In-memory span recorder: name, start, end, parent, op id, attributes."""

    def __init__(self, id_prefix: str = "") -> None:
        self.spans: list[dict] = []
        self._prefix = id_prefix
        self._stack: list[str] = []
        self._ops: list[object] = []
        self._next = 0

    @contextmanager
    def span(self, name: str, op=None, **attrs):
        span_id = f"{self._prefix}{self._next}"
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        if op is None and self._ops:
            op = self._ops[-1]
        self._stack.append(span_id)
        self._ops.append(op)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._ops.pop()
            self.spans.append(
                {"id": span_id, "name": name, "start": start, "end": end,
                 "parent": parent, "op": op, **attrs}
            )


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """span id -> duration minus the part of it its child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def nearest_rank(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below it.

    Failed ops enter as ``math.inf``.  At n=40, p75 is the 30th value, so
    ten samples lie beyond it.
    """
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def chrome_trace(spans: list[dict]) -> dict:
    """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
    base = min((s["start"] for s in spans), default=0.0)
    events = []
    for s in spans:
        args = {k: v for k, v in s.items() if k not in ("name", "start", "end", "pid")}
        events.append({
            "name": s["name"], "ph": "X", "pid": s.get("pid", 0), "tid": 0,
            "ts": round((s["start"] - base) * 1e6, 3),
            "dur": round((s["end"] - s["start"]) * 1e6, 3),
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
