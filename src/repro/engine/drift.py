"""The plan-drift ledger: predicted vs actual cost, persisted per run.

The planner's cost model is only as good as its calibration, and
calibration rots — a thermal-throttled laptop, a noisy CI runner, a
numpy upgrade all shift the real coefficients while
``results/engine_calibration.json`` stays frozen.  :func:`execute`
already measures predicted vs actual milliseconds on every run; this
module makes that comparison *persistent*: each execution of a plan
with a cost estimate (``est_seconds`` not None) appends one
``(plan fingerprint, modeled_ops, est_seconds, actual_seconds)`` record
to a JSONL ledger (default ``results/plan_drift.jsonl``), and

- :func:`drift_report` aggregates the ledger into per-plan and overall
  median/mean relative error (``repro-butterfly explain --drift``),
- :func:`calibrate_if_drifted` re-runs :func:`repro.engine.calibrate`
  only when the measured median relative error exceeds a threshold —
  the cheap "refresh the model iff it is actually wrong" loop
  (``repro-butterfly calibrate --if-drifted 0.5``).

Ledger writes go through the :class:`repro.obs.sinks.JsonlSink` API
and are gated on ``obs._enabled``: with observability off
(or force-disabled via ``REPRO_OBS=0``) no file is opened, no directory
created.  ``REPRO_DRIFT_LEDGER`` overrides the ledger path; setting it
to ``0``/``off`` disables the ledger even while obs is on.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time

from repro import obs
from repro.obs.sinks import JsonlSink

__all__ = [
    "DEFAULT_DRIFT_LEDGER_PATH",
    "drift_ledger_path",
    "plan_fingerprint",
    "record_drift",
    "load_drift",
    "drift_report",
    "render_drift_report",
    "calibrate_if_drifted",
]

#: Default ledger location, next to the calibration table it feeds.
DEFAULT_DRIFT_LEDGER_PATH = os.path.join("results", "plan_drift.jsonl")

#: Environment override: a path, or ``0``/``false``/``off``/``no`` to
#: disable ledger writes entirely.
DRIFT_LEDGER_ENV = "REPRO_DRIFT_LEDGER"

_DISABLED_VALUES = ("0", "false", "off", "no")

#: The plan fields that identify *what* was executed (the fingerprint
#: input).  Cost-model outputs (est_seconds, modeled_ops, reason) are
#: deliberately excluded: recalibrating must not change a plan's
#: identity, or drift history would reset on every refresh.
_FINGERPRINT_FIELDS = (
    "workload",
    "invariant",
    "storage",
    "layout",
    "strategy",
    "executor",
    "workers",
    "block_size",
    "side",
    "k",
)


def drift_ledger_path(path=None) -> str | None:
    """Resolve the ledger path (explicit > env > default); None = disabled."""
    if path is not None:
        return str(path)
    env = os.environ.get(DRIFT_LEDGER_ENV, "").strip()
    if env:
        return None if env.lower() in _DISABLED_VALUES else env
    return DEFAULT_DRIFT_LEDGER_PATH


def plan_fingerprint(the_plan) -> str:
    """Stable 12-hex-digit identity of a plan's execution shape.

    Two plans with the same (workload, invariant, storage, layout,
    strategy, executor, workers, block size, side, k) share a fingerprint
    regardless of what the cost model estimated for them — the key the
    ledger groups by.
    """
    record = the_plan.as_dict()
    key = {field: record.get(field) for field in _FINGERPRINT_FIELDS}
    blob = json.dumps(key, sort_keys=True, default=str)
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


def record_drift(the_plan, actual_seconds: float, path=None) -> dict | None:
    """Append one predicted-vs-actual record to the ledger.

    Called by :func:`repro.engine.execute` after every plan execution.
    Returns the appended record, or None when nothing was written
    (observability off, ledger disabled, a plan without a cost estimate,
    or the filesystem refused — a drift ledger is telemetry and must
    never fail the workload).
    """
    if not obs._enabled or the_plan.est_seconds is None:
        return None
    target = drift_ledger_path(path)
    if target is None:
        return None
    est = float(the_plan.est_seconds)
    actual = float(actual_seconds)
    record = {
        "ts": time.time(),
        "fingerprint": plan_fingerprint(the_plan),
        "label": the_plan.label,
        "workload": the_plan.workload,
        "modeled_ops": float(the_plan.modeled_ops),
        "est_seconds": est,
        "actual_seconds": actual,
        "rel_error": round(abs(actual - est) / max(actual, 1e-12), 6),
    }
    try:
        parent = os.path.dirname(target)
        if parent:
            os.makedirs(parent, exist_ok=True)
        JsonlSink(target).emit([record])
    except OSError:
        obs.inc("engine.drift.write_errors")
        return None
    obs.inc("engine.drift.records")
    return record


def load_drift(path=None) -> list[dict]:
    """Every ledger record, oldest first ([] when no ledger exists)."""
    target = drift_ledger_path(path) or DEFAULT_DRIFT_LEDGER_PATH
    if not os.path.exists(target):
        return []
    records = []
    with open(target) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def drift_report(path=None) -> dict:
    """Aggregate the ledger into overall and per-plan drift statistics.

    Returns ``{"path", "count", "median_rel_error", "mean_rel_error",
    "plans": {fingerprint: {"label", "workload", "count",
    "median_rel_error", "mean_est_seconds", "mean_actual_seconds"}}}``
    — ``median_rel_error`` is what ``calibrate --if-drifted`` gates on.
    """
    target = drift_ledger_path(path) or DEFAULT_DRIFT_LEDGER_PATH
    records = load_drift(target)
    rels = [r["rel_error"] for r in records if "rel_error" in r]
    plans: dict[str, dict] = {}
    for r in records:
        fp = r.get("fingerprint", "?")
        bucket = plans.setdefault(
            fp,
            {
                "label": r.get("label", "?"),
                "workload": r.get("workload", "?"),
                "rel_errors": [],
                "est_seconds": [],
                "actual_seconds": [],
            },
        )
        bucket["rel_errors"].append(r.get("rel_error", 0.0))
        bucket["est_seconds"].append(r.get("est_seconds", 0.0))
        bucket["actual_seconds"].append(r.get("actual_seconds", 0.0))
    for bucket in plans.values():
        errors = bucket.pop("rel_errors")
        est = bucket.pop("est_seconds")
        actual = bucket.pop("actual_seconds")
        bucket["count"] = len(errors)
        bucket["median_rel_error"] = (
            round(statistics.median(errors), 6) if errors else None
        )
        bucket["mean_est_seconds"] = (
            sum(est) / len(est) if est else None
        )
        bucket["mean_actual_seconds"] = (
            sum(actual) / len(actual) if actual else None
        )
    return {
        "path": target,
        "count": len(records),
        "median_rel_error": (
            round(statistics.median(rels), 6) if rels else None
        ),
        "mean_rel_error": (
            round(sum(rels) / len(rels), 6) if rels else None
        ),
        "plans": plans,
    }


def render_drift_report(report: dict) -> str:
    """Human table of a :func:`drift_report` result."""
    lines = [f"plan-drift ledger: {report['path']}"]
    if not report["count"]:
        lines.append("(no drift records; run a plan with observability on)")
        return "\n".join(lines)
    lines.append(
        f"{report['count']} executions | median rel error "
        f"{report['median_rel_error']:.3f} | mean {report['mean_rel_error']:.3f}"
    )
    lines.append("")
    label_w = max(
        [len(b["label"]) for b in report["plans"].values()] + [len("plan")]
    )
    lines.append(
        f"{'plan':<{label_w}}  {'fingerprint':<12}  {'runs':>5}  "
        f"{'median err':>10}  {'est ms':>9}  {'actual ms':>9}"
    )
    ranked = sorted(
        report["plans"].items(),
        key=lambda kv: -(kv[1]["median_rel_error"] or 0.0),
    )
    for fp, bucket in ranked:
        med = bucket["median_rel_error"]
        lines.append(
            f"{bucket['label']:<{label_w}}  {fp:<12}  {bucket['count']:>5}  "
            f"{med if med is None else format(med, '10.3f')}  "
            f"{bucket['mean_est_seconds'] * 1e3:>9.3f}  "
            f"{bucket['mean_actual_seconds'] * 1e3:>9.3f}"
        )
    return "\n".join(lines)


def calibrate_if_drifted(
    threshold: float,
    path=None,
    repeats: int = 3,
    persist: bool = True,
):
    """Re-run calibration only when measured drift exceeds ``threshold``.

    ``threshold`` is a median relative error (0.5 = the model is off by
    50% on the typical execution).  Returns ``(table, report)`` where
    ``table`` is the fresh :class:`~repro.engine.calibration.CalibrationTable`
    when calibration ran, or None when the ledger is empty or within
    threshold — the report says which.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    report = drift_report(path)
    median = report["median_rel_error"]
    if median is None or median <= threshold:
        return None, report
    from repro.engine.calibration import calibrate

    return calibrate(repeats=repeats, persist=persist), report
