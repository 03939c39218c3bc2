"""repro.engine — the unified Plan→Execute pipeline.

Section V of the paper shows that no single family member wins: the best
(invariant, storage, strategy, executor) combination depends on the graph
shape.  The vertex-priority kernel has no traversed side and ties or
beats every member on the measured shapes, so this package plans by a
fixed rule, with one front door and an explainable decision::

    from repro import engine

    p = engine.plan(graph)            # the rule: priority, serial, raw
    print(engine.explain(p, graph))   # the rule line that fired
    count = engine.execute(p, graph)  # or p.execute(graph)

    engine.plan(graph, "tip", side="left", k=4).execute(graph)

Every public counting entry point (``count_butterflies``,
``count_butterflies_parallel``, the CLI ``count`` / ``explain``
commands) routes its auto-selection through this package (``k_tip`` and
``k_wing`` have no choice left: ``peel --auto`` prints their plan);
hand-picked knobs are expressed as *pinned plan fields* rather
than separate code paths.  Plan decisions are recorded as obs trace
attributes and counters (``engine.plan.*``, ``engine.execute`` spans with
predicted vs actual cost), so ``stats`` and Perfetto show why a run was
shaped the way it was.

Layers:

- :mod:`repro.engine.plan` — the :class:`Plan` record.
- :mod:`repro.engine.planner` — the rule (unpinned → ``priority``,
  pins filled by the smaller-side rule, ``stream_apply`` scored),
  :func:`plan` / :func:`explain` / :func:`select_count_invariant`, and
  :func:`count_members`, every pinned count member the rule accepts.
- :mod:`repro.engine.calibration` — the four per-machine coefficients
  of the priority and stream estimates (measured by :func:`calibrate`,
  persisted under ``results/``, sane defaults when uncalibrated).
- :mod:`repro.engine.execute` — :func:`execute` dispatch onto the
  family / blocked / shared-executor / peeling code paths.
- :mod:`repro.engine.drift` — the persistent predicted-vs-actual
  ledger behind :func:`drift_report` and :func:`calibrate_if_drifted`.
"""

from repro._lazy import lazy_exports
from repro.engine.execute import execute
from repro.engine.planner import plan

_LAZY = {
    "DEFAULT_CALIBRATION_PATH": "repro.engine.calibration",
    "DEFAULT_COEFFICIENTS": "repro.engine.calibration",
    "CalibrationTable": "repro.engine.calibration",
    "calibrate": "repro.engine.calibration",
    "load_calibration": "repro.engine.calibration",
    "save_calibration": "repro.engine.calibration",
    "DEFAULT_DRIFT_LEDGER_PATH": "repro.engine.drift",
    "calibrate_if_drifted": "repro.engine.drift",
    "drift_report": "repro.engine.drift",
    "load_drift": "repro.engine.drift",
    "plan_fingerprint": "repro.engine.drift",
    "record_drift": "repro.engine.drift",
    "render_drift_report": "repro.engine.drift",
    "COUNT_STRATEGIES": "repro.engine.plan",
    "EXECUTORS": "repro.engine.plan",
    "STREAM_STRATEGIES": "repro.engine.plan",
    "WORKLOADS": "repro.engine.plan",
    "Plan": "repro.engine.plan",
    "DEFAULT_MAX_WORKERS": "repro._types",
    "DEFAULT_PLAN_BLOCK_BUDGET": "repro.core.blocked",
    "candidate_plans": "repro.engine.planner",
    "count_members": "repro.engine.planner",
    "explain": "repro.engine.planner",
    "select_count_invariant": "repro.engine.planner",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())

__all__ = [
    "Plan",
    "WORKLOADS",
    "COUNT_STRATEGIES",
    "STREAM_STRATEGIES",
    "EXECUTORS",
    "plan",
    "candidate_plans",
    "count_members",
    "explain",
    "execute",
    "select_count_invariant",
    "CalibrationTable",
    "calibrate",
    "load_calibration",
    "save_calibration",
    "DEFAULT_CALIBRATION_PATH",
    "DEFAULT_COEFFICIENTS",
    "DEFAULT_MAX_WORKERS",
    "DEFAULT_PLAN_BLOCK_BUDGET",
    "DEFAULT_DRIFT_LEDGER_PATH",
    "plan_fingerprint",
    "record_drift",
    "load_drift",
    "drift_report",
    "render_drift_report",
    "calibrate_if_drifted",
]
