"""Tests for the plan-drift ledger (:mod:`repro.engine.drift`).

Covers path resolution (explicit > ``REPRO_DRIFT_LEDGER`` env >
default, env disable values), fingerprint stability across cost-model
changes, the obs gate (no file touched while observability is off),
``engine.execute`` appending real records, report aggregation math,
``calibrate_if_drifted`` threshold behaviour, and the CLI front doors
(``explain --drift``, ``calibrate --if-drifted``).
"""

from __future__ import annotations

import json
import os

import pytest

from repro import engine, obs
from repro.engine import drift
from repro.graphs import power_law_bipartite


@pytest.fixture()
def ledger(tmp_path, monkeypatch):
    """Point the env at a fresh ledger file inside tmp_path."""
    path = tmp_path / "drift.jsonl"
    monkeypatch.setenv(drift.DRIFT_LEDGER_ENV, str(path))
    return path


@pytest.fixture(scope="module")
def graph():
    return power_law_bipartite(200, 300, 3_000, seed=3)


def _write_records(path, rel_errors, **extra):
    with open(path, "w") as fh:
        for i, rel in enumerate(rel_errors):
            record = {
                "fingerprint": extra.get("fingerprint", "abc123def456"),
                "label": extra.get("label", "inv6-serial"),
                "workload": "count",
                "modeled_ops": 10.0,
                "est_seconds": 0.001,
                "actual_seconds": 0.002,
                "rel_error": rel,
            }
            fh.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------------
# path resolution
# ----------------------------------------------------------------------
class TestLedgerPath:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(drift.DRIFT_LEDGER_ENV, raising=False)
        assert drift.drift_ledger_path() == drift.DEFAULT_DRIFT_LEDGER_PATH

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(drift.DRIFT_LEDGER_ENV, "/tmp/custom.jsonl")
        assert drift.drift_ledger_path() == "/tmp/custom.jsonl"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(drift.DRIFT_LEDGER_ENV, "/tmp/custom.jsonl")
        assert drift.drift_ledger_path("mine.jsonl") == "mine.jsonl"

    @pytest.mark.parametrize("value", ["0", "false", "OFF", "no"])
    def test_env_disable_values(self, monkeypatch, value):
        monkeypatch.setenv(drift.DRIFT_LEDGER_ENV, value)
        assert drift.drift_ledger_path() is None


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_stable_across_cost_model_outputs(self, graph):
        p1 = engine.plan(graph, "count")
        # cost-model outputs are excluded from the fingerprint: a
        # recalibrated estimate must not change a plan's identity
        p2 = p1.with_(est_seconds=p1.est_seconds * 10, reason="recalibrated")
        assert drift.plan_fingerprint(p1) == drift.plan_fingerprint(p2)
        assert len(drift.plan_fingerprint(p1)) == 12

    def test_differs_for_different_shapes(self, graph):
        p1 = engine.plan(graph, "count", strategy="scratch", executor="serial")
        p2 = engine.plan(graph, "tip", side="left", k=2)
        assert drift.plan_fingerprint(p1) != drift.plan_fingerprint(p2)

    def test_differs_by_layout_alone(self):
        # same blocked member on both layouts: the ledger must keep
        # their drift apart, or an mmap misprediction hides in the raw
        # plan's history
        base = engine.Plan(
            invariant=2, strategy="blocked", block_size=64, layout="raw"
        )
        prints = {
            drift.plan_fingerprint(base.with_(layout=layout))
            for layout in ("raw", "mmap")
        }
        assert len(prints) == 2

    #: fingerprints of planner-made plans on ``power_law_bipartite(60,
    #: 80, 600, seed=4)``, recorded while ``storage`` was a settable plan
    #: field; deriving it from the member must keep every ledger key
    PINNED_PRINTS = {
        ("count", None, None): "bf0eed2e6f00",
        ("count", 1, "scratch"): "5be2616ad3cd",
        ("count", 2, "wedge"): "33d6911ebb68",
        ("count", 4, "scratch"): "3e9100bb73f6",
        ("count", 5, "wedge"): "3517a236c841",
        ("count", 6, "spmv"): "204bfbd5aab0",
        ("count", 8, "scratch"): "cfff6c29fd38",
        ("vertex-counts", None, None): "41f9bc18ec09",
        ("tip", None, None): "6dbff3387c8f",
        ("wing", None, None): "cdeb10529987",
    }

    def test_planner_fingerprints_are_pinned(self):
        g = power_law_bipartite(60, 80, 600, seed=4)
        prints = {}
        for workload, invariant, strategy in self.PINNED_PRINTS:
            pins = {"k": 2} if workload in ("tip", "wing") else {}
            if workload == "vertex-counts":
                pins["side"] = "right"
            if strategy is not None:
                pins.update(invariant=invariant, strategy=strategy)
                if strategy == "wedge":
                    pins.update(executor="shared", workers=2)
            the_plan = engine.plan(g, workload, **pins)
            prints[workload, invariant, strategy] = drift.plan_fingerprint(the_plan)
        assert prints == self.PINNED_PRINTS
        incremental, recount = engine.plan(
            g, "stream_apply", batch=([(0, 1), (2, 3)], [])
        ).candidates
        assert {drift.plan_fingerprint(incremental),
                drift.plan_fingerprint(recount)} == {"cb54083e2db7", "7cab32fcd774"}


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
class TestRecordDrift:
    def test_gated_off_when_disabled(self, ledger, graph):
        assert not obs.is_enabled()
        the_plan = engine.plan(graph, "count")
        assert drift.record_drift(the_plan, 0.5) is None
        assert not ledger.exists()

    def test_appends_when_enabled(self, ledger, graph):
        the_plan = engine.plan(graph, "count")
        with obs.capture() as metrics:
            record = drift.record_drift(the_plan, 0.5)
        assert record is not None
        assert record["fingerprint"] == drift.plan_fingerprint(the_plan)
        assert record["actual_seconds"] == 0.5
        assert metrics.value("engine.drift.records") == 1
        (loaded,) = drift.load_drift(str(ledger))
        assert loaded["label"] == the_plan.label
        assert loaded["rel_error"] == pytest.approx(
            abs(0.5 - the_plan.est_seconds) / 0.5, abs=1e-5
        )

    def test_env_disable_suppresses_writes(self, monkeypatch, graph):
        monkeypatch.setenv(drift.DRIFT_LEDGER_ENV, "0")
        the_plan = engine.plan(graph, "count")
        with obs.capture():
            assert drift.record_drift(the_plan, 0.5) is None

    def test_write_error_never_raises(self, tmp_path, graph):
        target = tmp_path / "not_a_dir"
        target.write_text("")  # a file where a directory is needed
        the_plan = engine.plan(graph, "count")
        with obs.capture() as metrics:
            result = drift.record_drift(
                the_plan, 0.5, path=str(target / "drift.jsonl")
            )
        assert result is None
        assert metrics.value("engine.drift.write_errors") == 1

    def test_execute_appends_to_ledger(self, ledger, graph):
        the_plan = engine.plan(graph, "count")
        with obs.capture():
            value = engine.execute(the_plan, graph)
            value2 = engine.execute(the_plan, graph)
        assert value == value2
        records = drift.load_drift(str(ledger))
        assert len(records) == 2
        assert all(r["actual_seconds"] > 0 for r in records)
        assert all(r["fingerprint"] == records[0]["fingerprint"] for r in records)

    def test_unmodeled_plans_stay_out_of_the_ledger(self, ledger, graph):
        """A pinned blocked plan has no cost model (est_seconds None):
        executing it records nothing, while the priority plan does."""
        blocked = engine.plan(graph, "count", strategy="blocked")
        assert blocked.est_seconds is None
        priority = engine.plan(graph, "count")
        assert priority.strategy == "priority" and priority.est_seconds > 0
        with obs.capture() as metrics:
            assert drift.record_drift(blocked, 0.5) is None
            engine.execute(blocked, graph)
            assert not ledger.exists()
            assert metrics.histogram("engine.predicted_ms").count == 0
            engine.execute(priority, graph)
            assert metrics.histogram("engine.predicted_ms").count == 1
        (record,) = drift.load_drift(str(ledger))
        assert record["fingerprint"] == drift.plan_fingerprint(priority)
        assert engine.drift_report()["count"] == 1

    def test_execute_disabled_touches_nothing(self, ledger, graph):
        the_plan = engine.plan(graph, "count")
        engine.execute(the_plan, graph)
        assert not ledger.exists()


# ----------------------------------------------------------------------
# report aggregation
# ----------------------------------------------------------------------
class TestDriftReport:
    def test_empty_ledger(self, ledger):
        report = engine.drift_report()
        assert report["count"] == 0
        assert report["median_rel_error"] is None
        assert "no drift records" in engine.render_drift_report(report)

    def test_median_and_mean(self, ledger):
        _write_records(ledger, [0.1, 0.3, 0.8])
        report = engine.drift_report()
        assert report["count"] == 3
        assert report["median_rel_error"] == pytest.approx(0.3)
        assert report["mean_rel_error"] == pytest.approx(0.4)
        (bucket,) = report["plans"].values()
        assert bucket["count"] == 3
        assert bucket["median_rel_error"] == pytest.approx(0.3)

    def test_explicit_path_beats_env(self, ledger, tmp_path):
        other = tmp_path / "other.jsonl"
        _write_records(other, [0.5])
        report = engine.drift_report(path=str(other))
        assert report["count"] == 1
        assert report["path"] == str(other)

    def test_render_table(self, ledger):
        _write_records(ledger, [0.2, 0.4], label="inv2-spmv")
        out = engine.render_drift_report(engine.drift_report())
        assert "inv2-spmv" in out
        assert "2 executions" in out
        assert "median rel error 0.300" in out


# ----------------------------------------------------------------------
# calibrate --if-drifted
# ----------------------------------------------------------------------
class TestCalibrateIfDrifted:
    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            engine.calibrate_if_drifted(-0.1)

    def test_empty_ledger_keeps_table(self, ledger):
        table, report = engine.calibrate_if_drifted(0.5)
        assert table is None
        assert report["count"] == 0

    def test_below_threshold_keeps_table(self, ledger):
        _write_records(ledger, [0.1, 0.2])
        table, report = engine.calibrate_if_drifted(0.5)
        assert table is None
        assert report["median_rel_error"] == pytest.approx(0.15)

    def test_above_threshold_recalibrates(self, ledger, monkeypatch):
        _write_records(ledger, [0.9, 0.95])
        sentinel = object()
        calls = {}

        def fake_calibrate(repeats=3, persist=True):
            calls.update(repeats=repeats, persist=persist)
            return sentinel

        from repro.engine import calibration

        monkeypatch.setattr(calibration, "calibrate", fake_calibrate)
        table, report = engine.calibrate_if_drifted(
            0.5, repeats=2, persist=False
        )
        assert table is sentinel
        assert calls == {"repeats": 2, "persist": False}
        assert report["median_rel_error"] > 0.5


# ----------------------------------------------------------------------
# CLI front doors
# ----------------------------------------------------------------------
class TestCli:
    def test_explain_drift(self, ledger, capsys):
        from repro.cli import main

        _write_records(ledger, [0.25])
        assert main(["explain", "--drift"]) == 0
        out = capsys.readouterr().out
        assert "plan-drift ledger" in out
        assert "median rel error 0.250" in out

    def test_explain_drift_explicit_ledger(self, tmp_path, capsys):
        from repro.cli import main

        other = tmp_path / "l.jsonl"
        _write_records(other, [0.5])
        assert main(["explain", "--drift", "--ledger", str(other)]) == 0
        assert str(other) in capsys.readouterr().out

    def test_explain_without_graph_or_drift_errors(self, capsys):
        from repro.cli import main

        assert main(["explain"]) == 2
        assert "needs a GRAPH" in capsys.readouterr().err

    def test_calibrate_if_drifted_below_threshold(self, ledger, capsys):
        from repro.cli import main

        _write_records(ledger, [0.05])
        assert main(["calibrate", "--if-drifted", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "kept (not drifted)" in out

    def test_calibrate_if_drifted_above_threshold(
        self, ledger, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.engine import calibration

        _write_records(ledger, [0.9])

        class FakeTable:
            source = "measured (fake)"

        monkeypatch.setattr(
            calibration, "calibrate",
            lambda repeats=3, persist=True: FakeTable(),
        )
        assert main(["calibrate", "--if-drifted", "0.5", "--no-persist"]) == 0
        out = capsys.readouterr().out
        assert "re-measured" in out


# the ledger default path never leaks into the repo during tests: every
# test in this file routes through the env fixture or an explicit path
def test_no_stray_default_ledger_created(tmp_path, monkeypatch, graph):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(drift.DRIFT_LEDGER_ENV, raising=False)
    the_plan = engine.plan(graph, "count")
    engine.execute(the_plan, graph)  # obs off -> nothing written
    assert not os.path.exists(drift.DEFAULT_DRIFT_LEDGER_PATH)
