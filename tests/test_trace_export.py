"""Schema tests for the Chrome trace-event exporter.

- ``trace.json`` validates as Chrome trace-event JSON: every event has
  the required ``name``/``ph``/``ts``/``pid``/``tid`` fields, complete
  events carry ``dur``, and timestamps are monotonically non-decreasing
  in file order (Perfetto's loader requirement).
- The CLI ``--trace-out`` path emits a schema-valid file with the
  family→invariant→panel nesting.
"""

from __future__ import annotations

import json

from repro import obs
from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    write_chrome_trace,
)
from repro.obs.trace import span_tree

REQUIRED_EVENT_FIELDS = ("name", "ph", "ts", "pid", "tid")


def _assert_chrome_schema(payload: dict) -> list[dict]:
    """The schema predicate both the unit and CLI tests share."""
    assert isinstance(payload, dict)
    events = payload["traceEvents"]
    assert isinstance(events, list)
    last_ts = float("-inf")
    for event in events:
        for field in REQUIRED_EVENT_FIELDS:
            assert field in event, f"event missing {field!r}: {event}"
        assert event["ph"] == "X"
        assert "dur" in event and event["dur"] >= 0
        assert event["ts"] >= last_ts, "timestamps must be non-decreasing"
        last_ts = event["ts"]
    return events


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
class TestChromeTrace:
    def _records(self):
        with obs.capture():
            with obs.span("family.count", invariant=2) as sp:
                sp.set_attributes(selected="columns")
                with obs.span("blocked.count", invariant=2):
                    with obs.span("blocked.panel", lo=0, hi=64):
                        pass
                    with obs.span("blocked.panel", lo=64, hi=128):
                        pass
            return obs.trace_records()

    def test_events_schema_and_order(self):
        records = self._records()
        events = _assert_chrome_schema(chrome_trace(records))
        # 4 spans -> 4 complete events
        assert [e["ph"] for e in events] == ["X"] * 4

    def test_args_carry_span_identity_and_attrs(self):
        records = self._records()
        events = chrome_trace_events(records)
        by_name = {}
        for e in events:
            by_name.setdefault(e["name"], e)
        family = by_name["family.count"]
        assert family["args"]["invariant"] == 2
        assert family["args"]["selected"] == "columns"
        assert family["args"]["span_id"]
        assert family["args"]["status"] == "ok"
        panel = by_name["blocked.panel"]
        assert panel["args"]["parent_id"] is not None
        # category = layer prefix
        assert family["cat"] == "family" and panel["cat"] == "blocked"

    def test_write_chrome_trace_file(self, tmp_path):
        records = self._records()
        path = tmp_path / "trace.json"
        payload = write_chrome_trace(path, records, command="test")
        on_disk = json.loads(path.read_text())
        _assert_chrome_schema(on_disk)
        assert on_disk["otherData"]["command"] == "test"
        assert payload["displayTimeUnit"] == "ms"

    def test_nesting_survives_export(self):
        records = self._records()
        tree = span_tree(records)
        (root,) = tree["roots"]
        assert root["name"] == "family.count"
        kids = tree["children"][root["span_id"]]
        assert [k["name"] for k in kids] == ["blocked.count"]
        grandkids = tree["children"][kids[0]["span_id"]]
        assert [g["name"] for g in grandkids] == [
            "blocked.panel", "blocked.panel",
        ]

    def test_dump_trace_reports_drops(self, tmp_path):
        from repro.obs.trace import Tracer

        with obs.capture():
            # shrink the live tracer so the ring provably drops
            obs._TRACER = Tracer(capacity=2)
            for i in range(5):
                with obs.span("t.x", i=i):
                    pass
            payload = obs.dump_trace(tmp_path / "t.json")
        assert len(payload["traceEvents"]) == 2
        assert payload["otherData"]["dropped_spans"] == 3


# ----------------------------------------------------------------------
# CLI --trace-out acceptance (family -> invariant -> panel)
# ----------------------------------------------------------------------
class TestCliTraceOut:
    def test_count_blocked_trace_out(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "trace.json"
        rc = main([
            "--trace-out", str(out),
            "count", "dataset:arxiv", "--blocked", "--invariant", "3",
            "--block-size", "128",
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        events = _assert_chrome_schema(payload)
        names = {e["name"] for e in events}
        assert {"cli.count", "engine.plan", "engine.execute",
                "blocked.count", "blocked.panel"} <= names
        # nesting: cli.count -> engine.execute -> blocked.count(invariant)
        #          -> blocked.panel (the plan decision is a sibling span)
        complete = [e for e in events if e["ph"] == "X"]
        by_id = {e["args"]["span_id"]: e for e in complete}
        blocked = next(e for e in complete if e["name"] == "blocked.count")
        assert blocked["args"]["invariant"] == 3
        execute = by_id[blocked["args"]["parent_id"]]
        assert execute["name"] == "engine.execute"
        assert execute["args"]["invariant"] == 3
        assert by_id[execute["args"]["parent_id"]]["name"] == "cli.count"
        the_plan = next(e for e in complete if e["name"] == "engine.plan")
        assert by_id[the_plan["args"]["parent_id"]]["name"] == "cli.count"
        # the plan span and the execute span agree on the chosen decision
        assert the_plan["args"]["chosen"] == execute["args"]["chosen"]
        panel = next(e for e in complete if e["name"] == "blocked.panel")
        assert by_id[panel["args"]["parent_id"]]["name"] == "blocked.count"

    def test_subcommand_trace_out_flag(self, tmp_path):
        """--trace-out is accepted after the subcommand too (SUPPRESS
        keeps the subparser from clobbering the global value)."""
        from repro.cli import main

        out = tmp_path / "t.json"
        rc = main(["count", "dataset:arxiv", "--trace-out", str(out)])
        assert rc == 0
        _assert_chrome_schema(json.loads(out.read_text()))

    def test_stats_run_filter_and_list(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.metrics import Metrics
        from repro.obs.sinks import JsonlSink, flush

        path = tmp_path / "m.jsonl"
        m1 = Metrics()
        m1.inc("x.calls", 1)
        flush(m1, JsonlSink(path), run="one")
        m2 = Metrics()
        m2.inc("x.calls", 9)
        flush(m2, JsonlSink(path), run="two")

        assert main(["stats", "--from-metrics", str(path), "--list-runs"]) == 0
        assert capsys.readouterr().out.splitlines() == ["one", "two"]

        assert main([
            "stats", "--from-metrics", str(path), "--run", "two", "--json",
        ]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["x.calls"]["value"] == 9  # not 10: no silent merge

        assert main([
            "stats", "--from-metrics", str(path), "--run", "missing",
        ]) == 2
        assert "available runs" in capsys.readouterr().err
