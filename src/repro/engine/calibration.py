"""Per-machine calibration of the engine's cost estimates.

The work model counts element operations exactly, but *seconds per
operation* is a property of the machine.  Two plans carry a calibrated
estimate: the vertex-priority kernel (every unpinned ``count``,
``vertex-counts`` and ``tip`` plan, and the ``stream_apply`` recount
row) and the streaming incremental apply (the other ``stream_apply``
row).  Their estimates are

    priority     est = edges · ns_per_edge[priority] + wedges · ns_per_op[priority]
    incremental  est = ops · ns_per_op[stream] + stream_batch_ns

This module owns those four coefficients: shipped defaults, a
:func:`calibrate` routine that measures this machine, and JSON
persistence under ``results/`` so one calibration pass serves every
later run (``repro-butterfly explain`` prints which table it used).

Coefficients
------------
``ns_per_edge.priority`` / ``ns_per_op.priority``
    Per-edge cost of the priority kernel's rank relabel and sorted
    symmetric adjacency build, and its cost per expanded wedge.
``ns_per_op.stream`` / ``stream_batch_ns``
    Per-modeled-op cost (touched wedges + the O(nnz) splice) and flat
    per-batch overhead of the streaming batched-apply path
    (:class:`repro.core.stream.StreamingButterflyCounter`).
"""

from __future__ import annotations

import json
import math
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

#: Shipped defaults.  The priority pair is the median of 15 ``calibrate()``
#: solves on a 2-vCPU x86-64 CPython 3.11 + NumPy host.  The stream pair
#: is the median of 9 ``calibrate()`` solves on the same host, each fitted
#: on mixed batches (500 uniform inserts + 200 deletes of present edges)
#: over the spliced views; solves spread 120–141 ns/op and 0.35–1.04 ms
#: per batch.  It prices the seed-0 ``benchmarks/e2e`` stream batches
#: (~196k modeled ops, ~17–20 ms measured) at a median 1.25x their
#: apply (0.7–2.1x per batch), and every one of them plans
#: ``incremental``.
DEFAULT_COEFFICIENTS: dict = {
    "ns_per_op": {
        "priority": 10.3,
        "stream": 130.0,
    },
    "ns_per_edge": {
        "priority": 158.0,
    },
    "stream_batch_ns": 9.3e5,
}


def _merge(defaults: dict, override) -> tuple[dict, bool]:
    """``override`` over ``defaults``, keeping only the defaults' keys and
    only the overrides of their shape: a finite number for a number.
    Also returns whether any override was taken."""
    if not isinstance(override, dict):
        override = {}
    out, took = {}, False
    for key, value in defaults.items():
        given = override.get(key)
        if isinstance(value, dict):
            out[key], took_sub = _merge(value, given)
            took |= took_sub
        elif (isinstance(given, (int, float)) and not isinstance(given, bool)
              and math.isfinite(given)):
            out[key], took = given, True
        else:
            out[key] = value
    return out, took


@dataclass(frozen=True)
class CalibrationTable:
    """Measured (or default) coefficients for this machine."""

    coefficients: dict = field(
        default_factory=lambda: json.loads(json.dumps(DEFAULT_COEFFICIENTS))
    )
    #: where the table was loaded from (None → shipped defaults)
    source: str | None = None
    #: True when at least one coefficient came from a measurement
    calibrated: bool = False

    def ns_per_op(self, strategy: str) -> float:
        return float(self.coefficients["ns_per_op"][strategy])

    def ns_per_edge(self, strategy: str) -> float:
        return float(self.coefficients["ns_per_edge"][strategy])

    @property
    def stream_batch_ns(self) -> float:
        """Flat per-batch overhead of the streaming apply path."""
        return float(self.coefficients["stream_batch_ns"])

    @property
    def origin(self) -> str:
        """Human-readable provenance line for ``explain`` output."""
        if not self.source:
            return "defaults (run repro.engine.calibrate() to measure this machine)"
        if not self.calibrated and self.coefficients == DEFAULT_COEFFICIENTS:
            return f"defaults ({self.source} overrides none of them)"
        kind = "calibrated" if self.calibrated else "loaded"
        return f"{kind}: {self.source}"

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

    Missing file, unreadable or wrongly shaped JSON, partial coefficient
    sets and coefficients that are not finite numbers (NaN, inf, a
    string) all degrade gracefully to the shipped defaults — an
    uncalibrated machine must still plan sanely.  Keys the table no
    longer has (a file from an older release) are dropped.  The table is
    ``calibrated`` only if the file says so and at least one of its
    coefficients was taken.
    """
    path = path or os.environ.get("REPRO_CALIBRATION", DEFAULT_CALIBRATION_PATH)
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return CalibrationTable()
    if not isinstance(payload, dict):
        return CalibrationTable()
    coeffs, took = _merge(DEFAULT_COEFFICIENTS, payload.get("coefficients"))
    return CalibrationTable(
        coefficients=coeffs,
        source=str(path),
        calibrated=took and bool(payload.get("calibrated", True)),
    )


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def _best_of(fn, repeats: int, setup=None) -> float:
    """Best wall time of ``fn(setup())`` over ``repeats`` runs (setup untimed)."""
    best = float("inf")
    for _ in range(repeats):
        arg = setup() if setup is not None else None
        t0 = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best


def _solve(x_h, y_h, t_h, x_l, y_l, t_l) -> tuple[float, float]:
    """(a, b) with t = a·x + b·y through two measurements (0, 0 if singular)."""
    det = x_h * y_l - x_l * y_h
    if not det:
        return 0.0, 0.0
    return (t_h * y_l - t_l * y_h) / det, (x_h * t_l - x_l * t_h) / det


def calibrate(
    path: str | None = None,
    repeats: int = 3,
    persist: bool = True,
) -> CalibrationTable:
    """Measure this machine's four coefficients and (optionally) persist.

    Each pair comes from two measurements that weight its two terms
    differently, solved exactly in the model; ``repeats`` best-of timing
    keeps scheduler noise out.  ``repeats`` below 1 is a ``ValueError``:
    no timing would leave every coefficient NaN.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    import numpy as np  # deferred: keeps import cost off the fast path

    from repro.core.priority import count_butterflies_priority, priority_wedge_work
    from repro.core.stream import StreamingButterflyCounter
    from repro.core.workinfo import touched_wedge_work
    from repro.graphs.generators import gnm_bipartite, power_law_bipartite

    coeffs = json.loads(json.dumps(DEFAULT_COEFFICIENTS))  # deep copy

    # priority: a wedge-heavy graph pins ns_per_op.priority, a sparse one
    # (a few wedges per edge) pins ns_per_edge.priority
    heavy = power_law_bipartite(300, 400, 8000, seed=13)
    light = gnm_bipartite(4000, 4000, 8000, seed=14)
    (e_h, w_h, t_h), (e_l, w_l, t_l) = (
        (g.n_edges, priority_wedge_work(g),
         _best_of(lambda _, g=g: count_butterflies_priority(g), repeats))
        for g in (heavy, light)
    )
    per_edge, per_wedge = _solve(e_h, w_h, t_h, e_l, w_l, t_l)
    coeffs["ns_per_edge"]["priority"] = max(per_edge * 1e9, 1.0)
    coeffs["ns_per_op"]["priority"] = max(per_wedge * 1e9, 0.05)

    # stream: one mixed batch shaped like a real stream's -- 500 uniform
    # inserts and 200 deletes of present edges, so hub edges are drawn by
    # degree -- on the sparse graph and on one the size of a real stream
    # (~16x the modeled ops).  Most of a mixed batch is the delete
    # phase's probe of hub pairs, which an insert-only batch never pays
    # (it priced a mixed batch ~5x low).  The constructor is untimed.
    rng = np.random.default_rng(15)
    fits = []
    for g in (light, power_law_bipartite(30_000, 40_000, 120_000, seed=16)):
        insert = np.stack(
            [rng.integers(0, g.n_left, 500), rng.integers(0, g.n_right, 500)],
            axis=1,
        )
        delete = g.edges()[rng.choice(g.n_edges, 200, replace=False)]
        t = _best_of(
            lambda counter, i=insert, d=delete: counter.apply(insert=i, delete=d),
            repeats, setup=lambda g=g: StreamingButterflyCounter(g),
        )
        edits = np.concatenate((insert, delete))
        ops = touched_wedge_work(g, edits[:, 0], edits[:, 1]) + g.n_edges
        fits.append((ops + len(edits), 1, t))
    per_op, per_batch = _solve(*fits[0], *fits[1])
    if per_op <= 0:  # noisy timing: charge the larger batch per op
        per_op, per_batch = fits[1][2] / fits[1][0], 0.0
    coeffs["ns_per_op"]["stream"] = max(per_op * 1e9, 0.05)
    coeffs["stream_batch_ns"] = max(per_batch * 1e9, 10000.0)

    table = CalibrationTable(coefficients=coeffs, calibrated=True)
    if persist:
        written = save_calibration(table, path)
        table = CalibrationTable(
            coefficients=coeffs, source=written, calibrated=True
        )
    return table
