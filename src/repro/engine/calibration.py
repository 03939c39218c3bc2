"""Per-machine calibration of the engine's cost model.

The work model (:mod:`repro.core.workinfo`) counts element operations
exactly, but *seconds per operation* is a property of the machine and the
kernel: a NumPy wedge expansion costs a few nanoseconds per endpoint,
while the per-pivot interpreter overhead of the unblocked loop costs
microseconds per iteration.  The planner's cost estimate is

    est = ops · ns_per_op[strategy] + iterations · ns_per_iter[strategy]
          (÷ workers · efficiency + dispatch overhead, when parallel)

This module owns the coefficient table: shipped defaults that are sane
for CPython + NumPy on current x86/ARM (so the planner works out of the
box), a :func:`calibrate` routine that measures the machine's actual
coefficients on small synthetic graphs, and JSON persistence under
``results/`` so one calibration pass serves every later run
(``repro-butterfly explain`` prints which table it used).

Coefficients
------------
``ns_per_op.{adjacency,scratch,spmv,blocked,wedge,priority}``
    Nanoseconds per modeled element operation of each strategy's kernel
    (for ``priority``: per expanded wedge).
``ns_per_edge.priority``
    Per-edge cost of the vertex-priority kernel's rank relabel and
    sorted symmetric adjacency build.
``ns_per_pivot.{adjacency,scratch,spmv}``
    Per-iteration interpreter overhead of the unblocked loop.
``ns_per_panel``
    Per-iteration overhead of a blocked panel (gather + reduction setup).
``ns_per_shard``
    Per-shard overhead of the wedge-partitioned path (shard dispatch +
    panel reduction setup).
``ns_per_op.stream`` / ``stream_batch_ns``
    Per-touched-wedge cost and flat per-batch overhead of the streaming
    batched-apply path (:class:`repro.core.stream.StreamingButterflyCounter`).
``parallel_dispatch_ns``
    Flat per-call overhead of a warm shared-memory dispatch.
``parallel_efficiency``
    Fraction of ideal speedup the pool achieves (imbalance + merge).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

__all__ = [
    "CalibrationTable",
    "DEFAULT_COEFFICIENTS",
    "DEFAULT_CALIBRATION_PATH",
    "load_calibration",
    "save_calibration",
    "calibrate",
]

#: Default location of the persisted table (relative to the working
#: directory, next to the other bench artifacts); override with the
#: ``REPRO_CALIBRATION`` environment variable.
DEFAULT_CALIBRATION_PATH = os.path.join("results", "engine_calibration.json")

#: Shipped defaults — measured on a commodity x86-64 CPython 3.11 + NumPy
#: box and deliberately conservative: per-iteration overheads dominate on
#: small graphs (which is the truth of the unblocked loops in CPython) so
#: the planner correctly prefers panel kernels once pivots are plentiful.
DEFAULT_COEFFICIENTS: dict = {
    "ns_per_op": {
        "adjacency": 9.0,
        "scratch": 7.0,
        "spmv": 2.5,
        "blocked": 3.5,
        "wedge": 4.0,
        # the priority pair comes from calibrate()'s heavy/light solve on
        # a 2-vCPU x86-64 host (median of 41 solves: 19.8 ns/wedge and
        # 183 ns/edge, with ns_per_op.blocked at 27.6 there), scaled by
        # 3.5/27.6 onto this table's blocked coefficient so the ratio
        # that decides plans is the measured one
        "priority": 2.5,
        "stream": 12.0,
    },
    "ns_per_edge": {
        "priority": 23.0,
    },
    "ns_per_pivot": {
        "adjacency": 9000.0,
        "scratch": 8000.0,
        "spmv": 7000.0,
    },
    "ns_per_panel": 60000.0,
    "ns_per_shard": 40000.0,
    "stream_batch_ns": 1.5e6,
    "parallel_dispatch_ns": 2.5e6,
    "parallel_efficiency": 0.7,
    # storage axis: one-off cost of building the degree-reordered layout
    # (per edge: two degree sorts + relabel + recompression of both
    # views) and the multiplicative discount the reordered layout earns
    # on the panel kernels' per-op cost (cache locality)
    "reorder_ns_per_edge": 40.0,
    "reorder_gain": 0.85,
}


def _merge(defaults: dict, override: dict) -> dict:
    out = {}
    for key, value in defaults.items():
        if isinstance(value, dict):
            out[key] = _merge(value, override.get(key, {}) or {})
        else:
            out[key] = override.get(key, value)
    return out


@dataclass(frozen=True)
class CalibrationTable:
    """Measured (or default) ns/op coefficients for this machine."""

    coefficients: dict = field(default_factory=lambda: dict(DEFAULT_COEFFICIENTS))
    #: where the table was loaded from (None → shipped defaults)
    source: str | None = None
    #: True when at least one coefficient came from a measurement
    calibrated: bool = False

    # -- accessors ------------------------------------------------------
    def ns_per_op(self, strategy: str) -> float:
        return float(self.coefficients["ns_per_op"][strategy])

    def ns_per_edge(self, strategy: str) -> float:
        return float(self.coefficients["ns_per_edge"][strategy])

    def ns_per_pivot(self, strategy: str) -> float:
        return float(self.coefficients["ns_per_pivot"][strategy])

    @property
    def ns_per_panel(self) -> float:
        return float(self.coefficients["ns_per_panel"])

    @property
    def ns_per_shard(self) -> float:
        return float(self.coefficients["ns_per_shard"])

    @property
    def stream_batch_ns(self) -> float:
        """Flat per-batch overhead of the streaming apply path."""
        return float(self.coefficients["stream_batch_ns"])

    @property
    def parallel_dispatch_ns(self) -> float:
        return float(self.coefficients["parallel_dispatch_ns"])

    @property
    def parallel_efficiency(self) -> float:
        return float(self.coefficients["parallel_efficiency"])

    @property
    def reorder_ns_per_edge(self) -> float:
        """One-off build cost of the degree-reordered layout, per edge."""
        return float(self.coefficients["reorder_ns_per_edge"])

    @property
    def reorder_gain(self) -> float:
        """Per-op cost multiplier (< 1 is a win) under the reordered layout."""
        return float(self.coefficients["reorder_gain"])

    @property
    def origin(self) -> str:
        """Human-readable provenance line for ``explain`` output."""
        if self.source:
            kind = "calibrated" if self.calibrated else "loaded"
            return f"{kind}: {self.source}"
        return "defaults (run repro.engine.calibrate() to measure this machine)"

    def as_dict(self) -> dict:
        return {
            "version": 1,
            "calibrated": self.calibrated,
            "coefficients": self.coefficients,
        }


def save_calibration(table: CalibrationTable, path: str | None = None) -> str:
    """Persist ``table`` as JSON (creating the directory); returns the path."""
    path = path or os.environ.get("REPRO_CALIBRATION", DEFAULT_CALIBRATION_PATH)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    payload = dict(table.as_dict(), measured_at=time.time())
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def load_calibration(path: str | None = None) -> CalibrationTable:
    """Load the persisted table, merged over defaults.

    Missing file, unreadable JSON, or partial coefficient sets all
    degrade gracefully to the shipped defaults — an uncalibrated machine
    must still plan sanely.
    """
    path = path or os.environ.get("REPRO_CALIBRATION", DEFAULT_CALIBRATION_PATH)
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return CalibrationTable()
    coeffs = _merge(DEFAULT_COEFFICIENTS, payload.get("coefficients", {}) or {})
    return CalibrationTable(
        coefficients=coeffs,
        source=str(path),
        calibrated=bool(payload.get("calibrated", True)),
    )


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate(
    path: str | None = None,
    repeats: int = 3,
    persist: bool = True,
) -> CalibrationTable:
    """Measure this machine's ns/op coefficients and (optionally) persist.

    Two synthetic graphs separate the two unknowns per strategy: a
    *wedge-heavy* graph (few pivots, ops dominate) pins ``ns_per_op`` and
    a *pivot-heavy* sparse graph (many pivots, trivial ops) pins
    ``ns_per_pivot``.  Solving the 2×2 system per strategy is exact in
    the model; ``repeats`` best-of timing keeps scheduler noise out.
    """
    import numpy as np  # deferred: keeps import cost off the fast path

    from repro.core.blocked import count_butterflies_blocked
    from repro.core.family import count_butterflies_unblocked
    from repro.core.workinfo import work_profile
    from repro.graphs.generators import gnm_bipartite, power_law_bipartite

    heavy = power_law_bipartite(300, 400, 8000, seed=13)  # ops-dominant
    light = gnm_bipartite(4000, 4000, 8000, seed=14)  # pivot-dominant

    coeffs = json.loads(json.dumps(DEFAULT_COEFFICIENTS))  # deep copy
    for strategy in ("adjacency", "scratch", "spmv"):
        wp_h = work_profile(heavy, 2, strategy)
        wp_l = work_profile(light, 2, strategy)
        t_h = _best_of(
            lambda s=strategy: count_butterflies_unblocked(heavy, 2, strategy=s),
            repeats,
        )
        t_l = _best_of(
            lambda s=strategy: count_butterflies_unblocked(light, 2, strategy=s),
            repeats,
        )
        # t = ops·a + pivots·b, two measurements → solve for (a, b)
        det = (
            wp_h.total_ops * wp_l.pivots - wp_l.total_ops * wp_h.pivots
        )
        if det:
            a = (t_h * wp_l.pivots - t_l * wp_h.pivots) / det
            b = (wp_h.total_ops * t_l - wp_l.total_ops * t_h) / det
        else:  # degenerate (cannot happen with these generators)
            a = t_h / max(wp_h.total_ops, 1)
            b = 0.0
        coeffs["ns_per_op"][strategy] = max(a * 1e9, 0.05)
        coeffs["ns_per_pivot"][strategy] = max(b * 1e9, 50.0)

    # blocked: panels of the heavy graph pin ns_per_op.blocked; panels of
    # the light graph pin ns_per_panel
    wp_h = work_profile(heavy, 2, "adjacency")
    wp_l = work_profile(light, 2, "adjacency")
    block = 64
    panels_h = -(-heavy.n_right // block)
    panels_l = -(-light.n_right // block)
    t_h = _best_of(
        lambda: count_butterflies_blocked(heavy, 2, block_size=block), repeats
    )
    t_l = _best_of(
        lambda: count_butterflies_blocked(light, 2, block_size=block), repeats
    )
    det = wp_h.total_ops * panels_l - wp_l.total_ops * panels_h
    if det:
        a = (t_h * panels_l - t_l * panels_h) / det
        b = (wp_h.total_ops * t_l - wp_l.total_ops * t_h) / det
    else:
        a = t_h / max(wp_h.total_ops, 1)
        b = 0.0
    coeffs["ns_per_op"]["blocked"] = max(a * 1e9, 0.05)
    coeffs["ns_per_panel"] = max(b * 1e9, 500.0)

    # wedge: time the bare shard walk (the exact kernel loop the pool
    # workers run — per-call entry overhead is modeled separately as
    # parallel_dispatch_ns).  The ops-dominant heavy graph pins
    # ns_per_op.wedge; the light graph, whose shards are nearly empty,
    # pins ns_per_shard.
    from repro.core.blocked import panel_butterflies
    from repro.core.parallel import wedge_shards
    from repro.core.workinfo import (
        matrices_for_side,
        pivot_work_estimate,
        resolve_invariant,
    )

    inv2 = resolve_invariant(2)
    timings = []
    for g in (heavy, light):
        pm, comp = matrices_for_side(g, inv2.side)
        # n_workers=1 × chunks_per_worker=4: the serial-path shard count
        shards = wedge_shards(pivot_work_estimate(pm, comp), 4)
        scratch = np.zeros(pm.major_dim, dtype=np.int64)

        def walk(pm=pm, comp=comp, shards=shards, scratch=scratch):
            total = 0
            for lo, hi in shards:
                total += panel_butterflies(
                    pm, comp, lo, hi, inv2.reference, scratch=scratch
                )
            return total

        timings.append((len(shards), _best_of(walk, repeats)))
    (shards_h, t_h), (shards_l, t_l) = timings
    det = wp_h.total_ops * shards_l - wp_l.total_ops * shards_h
    if det:
        a = (t_h * shards_l - t_l * shards_h) / det
        b = (wp_h.total_ops * t_l - wp_l.total_ops * t_h) / det
    else:
        a = t_h / max(wp_h.total_ops, 1)
        b = 0.0
    coeffs["ns_per_op"]["wedge"] = max(a * 1e9, 0.05)
    coeffs["ns_per_shard"] = max(b * 1e9, 500.0)

    # priority: a relabel pass per edge plus the expanded wedges; the
    # heavy graph (many wedges per edge) pins ns_per_op.priority and the
    # light one (a few) ns_per_edge.priority
    from repro.core.priority import (
        count_butterflies_priority,
        priority_wedge_work,
    )

    timings = []
    for g in (heavy, light):
        t = _best_of(lambda g=g: count_butterflies_priority(g), repeats)
        timings.append((g.n_edges, priority_wedge_work(g), t))
    (edges_h, wedges_h, t_h), (edges_l, wedges_l, t_l) = timings
    det = edges_h * wedges_l - edges_l * wedges_h
    if det:
        a = (t_h * wedges_l - t_l * wedges_h) / det
        b = (edges_h * t_l - edges_l * t_h) / det
    else:
        a = 0.0
        b = t_h / max(wedges_h, 1)
    coeffs["ns_per_edge"]["priority"] = max(a * 1e9, 1.0)
    coeffs["ns_per_op"]["priority"] = max(b * 1e9, 0.05)

    # stream: two batch sizes on the wedge-heavy graph separate the
    # per-touched-wedge cost from the flat per-batch overhead
    from repro.core.stream import StreamingButterflyCounter
    from repro.core.workinfo import touched_wedge_work

    rng = np.random.default_rng(15)
    measurements = []
    for size in (16, 512):
        rows = rng.integers(0, heavy.n_left, size=size)
        cols = rng.integers(0, heavy.n_right, size=size)
        edges = np.stack([rows, cols], axis=1)
        ops = (
            touched_wedge_work(heavy, rows, cols)
            + heavy.n_edges + size
        )

        def batch_apply(edges=edges):
            counter = StreamingButterflyCounter(heavy)
            counter.apply(insert=edges)

        # subtract the constructor cost so only apply() is timed
        t_ctor = _best_of(lambda: StreamingButterflyCounter(heavy), repeats)
        t_all = _best_of(batch_apply, repeats)
        measurements.append((ops, max(t_all - t_ctor, 0.0)))
    (ops_s, t_s), (ops_b, t_b) = measurements
    det = ops_b - ops_s
    if det:
        a = (t_b - t_s) / det
        b = t_s - ops_s * a
    else:
        a = t_b / max(ops_b, 1)
        b = 0.0
    coeffs["ns_per_op"]["stream"] = max(a * 1e9, 0.05)
    coeffs["stream_batch_ns"] = max(b * 1e9, 10000.0)

    # storage axis: the reorder build cost and per-op gain need a graph
    # whose index working set exceeds the last-level cache for the
    # locality effect to show — the small calibration graphs can't, so a
    # dedicated (one-shot, still sub-second) skewed graph measures them
    from repro.storage import ReorderedCSR

    skewed = power_law_bipartite(20_000, 30_000, 150_000, seed=16)
    t_build = _best_of(lambda: ReorderedCSR(skewed), repeats)
    coeffs["reorder_ns_per_edge"] = max(
        t_build / max(skewed.n_edges, 1) * 1e9, 1.0
    )
    reordered = ReorderedCSR(skewed)
    t_raw = _best_of(
        lambda: count_butterflies_blocked(skewed, 2, block_size=256), repeats
    )
    t_re = _best_of(
        lambda: count_butterflies_blocked(reordered, 2, block_size=256), repeats
    )
    if t_raw > 0:
        # clamp: the gain is a second-order locality effect and a noisy
        # ratio must not convince the planner reorder halves (or doubles)
        # kernel time
        coeffs["reorder_gain"] = min(max(t_re / t_raw, 0.6), 1.25)

    table = CalibrationTable(coefficients=coeffs, calibrated=True)
    if persist:
        written = save_calibration(table, path)
        table = CalibrationTable(
            coefficients=coeffs, source=written, calibrated=True
        )
    return table
