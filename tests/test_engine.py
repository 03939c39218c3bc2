"""Property suite for the unified execution engine (repro.engine).

The acceptance properties of the Plan→Execute pipeline:

1. **Correctness under planning** — for every conformance-corpus graph,
   ``plan(g, workload).execute(g)`` agrees with the eq. (4) spec count
   (counts), the naive per-vertex oracle (vertex-counts), and the
   pure-Python peeling references (tip/wing) — for the unpinned plan
   and for every pinned (member, strategy, executor, layout) cell.
2. **Work-model sanity** — modeled ops (and, where a cost model
   exists, estimated cost) are monotone in nnz along nested edge-prefix
   graphs of a generator family.
3. **Pinning** — the rule table: every caller-pinned field survives
   into the plan, the rule fills the rest, contradictory pins raise.
4. **Explain/trace agreement** — the ``engine.plan`` span attributes,
   the ``engine.execute`` span attributes, and the ``explain`` table all
   name the same decision.
5. **Calibration** — measure → persist → load round-trips, and a missing
   or corrupt table degrades to the shipped defaults.
6. **Entry points** — the auto and expert counting entry points stay
   warning-free, and the peeling entry points accept plans.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro import engine, obs
from repro.core import (
    butterflies_spec_bform,
    count_butterflies,
    count_butterflies_unblocked,
    k_tip,
    k_wing,
)
from repro.core.local_counts import vertex_butterfly_counts
from repro.engine import (
    CalibrationTable,
    DEFAULT_COEFFICIENTS,
    Plan,
    calibrate,
    candidate_plans,
    load_calibration,
    save_calibration,
    select_count_invariant,
)
from repro.graphs import BipartiteGraph, gnm_bipartite, power_law_bipartite
from repro.reference import k_tip_reference, k_wing_reference
from tests.conftest import tiny_named_graphs

#: Default-coefficient table: keeps every test hermetic against a
#: ``results/engine_calibration.json`` left behind by a bench run.
DEFAULTS = CalibrationTable()


@pytest.fixture(autouse=True)
def _no_persisted_calibration(monkeypatch, tmp_path):
    """Point the calibration env at a non-existent file for every test."""
    monkeypatch.setenv("REPRO_CALIBRATION", str(tmp_path / "absent.json"))


# ----------------------------------------------------------------------
# 1. plan().execute() correctness on the conformance corpus
# ----------------------------------------------------------------------
class TestPlanExecuteCorrectness:
    def test_count_matches_spec_on_corpus(self, corpus):
        for name, g in corpus:
            expected = butterflies_spec_bform(g)
            got = engine.plan(g, "count", calibration=DEFAULTS).execute(g)
            assert got == expected, name

    def test_count_matches_spec_on_tiny_graphs(self):
        for name, g in tiny_named_graphs().items():
            expected = butterflies_spec_bform(g)
            got = engine.plan(g, "count", calibration=DEFAULTS).execute(g)
            assert got == expected, name

    def test_every_pinned_member_agrees(self, corpus):
        """Every fixed-side cell pins can reach — suffix member of either
        side × strategy × executor × layout — computes the spec count."""
        cells = 0
        for name, g in corpus:
            expected = butterflies_spec_bform(g)
            for invariant in (2, 6):
                for strategy in ("scratch", "spmv", "blocked", "wedge"):
                    for executor in ("serial", "shared"):
                        if strategy == "blocked" and executor == "shared":
                            continue  # serial-only: a ValueError, see TestRuleTable
                        for layout in ("raw", "mmap"):
                            if layout == "mmap" and executor == "shared":
                                continue  # serial-only, likewise
                            p = engine.plan(
                                g, "count", invariant=invariant,
                                strategy=strategy, executor=executor,
                                workers=2 if executor == "shared" else None,
                                layout=layout, calibration=DEFAULTS,
                            )
                            assert (p.invariant, p.strategy, p.executor,
                                    p.layout) == (invariant, strategy,
                                                  executor, layout)
                            assert p.execute(g) == expected, (name, p.label)
                            cells += 1
        # per member: 4 serial strategies x 2 layouts + 3 pooled on raw
        assert cells == len(corpus) * 2 * 11
        from repro.parallel import shutdown_default_executors

        shutdown_default_executors()

    def test_vertex_counts_matches_oracle(self, corpus):
        for name, g in corpus[:6]:
            for side in ("left", "right"):
                expected = vertex_butterfly_counts(g, side)
                got = engine.plan(
                    g, "vertex-counts", side=side, calibration=DEFAULTS
                ).execute(g)
                assert np.array_equal(got, expected), (name, side)

    def test_tip_plan_matches_reference(self, corpus):
        for name, g in corpus[:4]:
            for k in (1, 3):
                res = engine.plan(
                    g, "tip", k=k, calibration=DEFAULTS
                ).execute(g)
                assert res.kept.tolist() == k_tip_reference(g, k), (name, k)

    def test_wing_plan_matches_reference(self, corpus):
        for name, g in corpus[:4]:
            res = engine.plan(g, "wing", k=2, calibration=DEFAULTS).execute(g)
            got = {tuple(map(int, e)) for e in res.subgraph.edges()}
            assert got == k_wing_reference(g, 2), name

    def test_execute_k_override(self):
        g = power_law_bipartite(50, 60, 400, seed=2)
        p = engine.plan(g, "tip", k=1, calibration=DEFAULTS)
        res = engine.execute(p, g, k=4)
        assert res.k == 4
        assert res.kept.tolist() == k_tip_reference(g, 4)

    def test_peeling_workload_requires_k(self):
        g = power_law_bipartite(20, 20, 60, seed=1)
        p = engine.plan(g, "tip", calibration=DEFAULTS)
        with pytest.raises(ValueError, match="requires a peeling threshold"):
            engine.execute(p, g)

    def test_family_only_plans_stay_in_the_unblocked_family(self, corpus):
        """The sequential-family path (``count_butterflies``, the CLI's
        default ``count``) pins scratch + serial; the rule adds the
        smaller side's suffix member and the raw layout."""
        for name, g in corpus[:6]:
            p = engine.plan(
                g, "count", strategy="scratch", executor="serial",
                calibration=DEFAULTS,
            )
            assert p.strategy == "scratch", name
            assert p.executor == "serial" and p.workers == 1
            assert p.invariant == select_count_invariant(g) in (2, 6)
            assert p.layout == "raw" and p.est_seconds is None
            assert count_butterflies(g) == butterflies_spec_bform(g), name

    def test_pinned_wedge_plans_and_executes(self, corpus):
        """A pinned wedge strategy plans on any machine (the serial shard
        walk is always a candidate) and computes the spec count."""
        for name, g in corpus[:5]:
            expected = butterflies_spec_bform(g)
            p = engine.plan(
                g, "count", strategy="wedge", executor="serial",
                calibration=DEFAULTS,
            )
            assert p.strategy == "wedge" and p.executor == "serial", name
            assert p.execute(g) == expected, name



# ----------------------------------------------------------------------
# 2. work-model monotonicity on nested edge-prefix graphs
# ----------------------------------------------------------------------
class TestCostModelMonotonicity:
    def _edge_prefixes(self):
        full = gnm_bipartite(40, 50, 500, seed=21)
        edges = [tuple(map(int, e)) for e in full.edges()]
        for m in (50, 150, 300, 500):
            yield BipartiteGraph(edges[:m], n_left=40, n_right=50)

    @pytest.mark.parametrize("strategy", ["scratch", "spmv", "wedge"])
    def test_modeled_ops_and_cost_monotone_in_nnz(self, strategy):
        """Adding edges never lowers a pinned member's modeled work; the
        rule models no cost for it (``est_seconds`` is None)."""
        ops = []
        for g in self._edge_prefixes():
            p = engine.plan(
                g, "count", invariant=2, strategy=strategy,
                executor="serial", calibration=DEFAULTS,
            )
            ops.append(p.modeled_ops)
            assert p.est_seconds is None
        assert ops == sorted(ops), ops

    def test_priority_cost_monotone_in_nnz(self):
        """The one modeled count plan: wedges and estimate grow with nnz."""
        ops, est = [], []
        for g in self._edge_prefixes():
            p = engine.plan(g, "count", calibration=DEFAULTS)
            assert p.strategy == "priority"
            ops.append(p.modeled_ops)
            est.append(p.est_seconds)
        assert ops == sorted(ops), ops
        assert est == sorted(est), est

    def test_smaller_side_has_cheaper_pivot_overhead(self):
        """A pinned plan without a member pivots the small side — the
        paper's Section V rule, stated once in select_count_invariant."""
        wide = gnm_bipartite(4, 300, 500, seed=5)  # left side tiny
        assert select_count_invariant(wide) == 6  # rows = left = smaller
        tall = wide.swap_sides()
        assert select_count_invariant(tall) == 2  # columns = right = smaller


# ----------------------------------------------------------------------
# 3. pinning
# ----------------------------------------------------------------------
class TestPinning:
    @pytest.fixture(scope="class")
    def g(self):
        return power_law_bipartite(60, 80, 600, seed=4)

    def test_pinned_fields_survive(self, g):
        p = engine.plan(
            g, "count", invariant=3, strategy="spmv", executor="serial",
            calibration=DEFAULTS,
        )
        assert (p.invariant, p.strategy, p.executor) == (3, "spmv", "serial")
        assert p.execute(g) == butterflies_spec_bform(g)

    def test_pinned_block_size(self, g):
        p = engine.plan(
            g, "count", strategy="blocked", block_size=32,
            calibration=DEFAULTS,
        )
        assert p.block_size == 32 and p.strategy == "blocked"
        assert p.execute(g) == butterflies_spec_bform(g)

    def test_pinned_workers_yield_parallel_plan(self, g):
        p = engine.plan(
            g, "count", workers=2, executor="shared", calibration=DEFAULTS,
        )
        assert p.workers == 2 and p.executor == "shared"
        assert p.execute(g) == butterflies_spec_bform(g)

    @pytest.mark.parametrize("pins, names", [
        ({"strategy": "blocked", "executor": "shared"},
         ("strategy 'blocked'", "executor='shared'")),
        ({"strategy": "blocked", "workers": 2},
         ("strategy 'blocked'", "workers=2")),
        ({"executor": "serial", "workers": 4},
         ("executor='serial'", "workers=4")),
    ], ids=["blocked-shared", "blocked-workers", "serial-workers"])
    def test_overconstrained_pins_raise(self, g, pins, names):
        """Contradictory pins are an error naming both pins, never a
        silent re-plan."""
        with pytest.raises(ValueError, match="conflicting pins") as err:
            engine.plan(g, "count", calibration=DEFAULTS, **pins)
        for name in names:
            assert name in str(err.value)

    def test_unknown_workload_strategy_executor_rejected(self, g):
        with pytest.raises(ValueError, match="workload"):
            engine.plan(g, "sorting", calibration=DEFAULTS)
        with pytest.raises(ValueError, match="strategy"):
            engine.plan(g, "count", strategy="magic", calibration=DEFAULTS)
        with pytest.raises(ValueError, match="executor"):
            engine.plan(g, "count", executor="gpu", calibration=DEFAULTS)
        # a non-positive pool size is an error, not a silent serial plan
        with pytest.raises(ValueError, match="n_workers must be >= 1"):
            engine.plan(g, "count", workers=0, calibration=DEFAULTS)
        # a zero panel width is an error, not the auto-sized default
        with pytest.raises(ValueError, match="block_size must be >= 1, got 0"):
            engine.plan(g, "count", strategy="blocked", block_size=0,
                        calibration=DEFAULTS)
        with pytest.raises(ValueError, match="k must be non-negative, got -2"):
            engine.plan(g, "tip", k=-2, calibration=DEFAULTS)

    def test_plan_record_validation(self):
        with pytest.raises(ValueError, match="workload"):
            Plan(workload="nope")
        with pytest.raises(ValueError, match="workers"):
            Plan(workers=0)
        with pytest.raises(ValueError, match="invariant"):
            Plan(invariant=12)
        with pytest.raises(ValueError, match="block_size must be >= 1"):
            Plan(strategy="blocked", block_size=0)
        with pytest.raises(ValueError, match="k must be non-negative"):
            Plan(workload="tip", k=-1)
        with pytest.raises(TypeError, match="Plan"):
            engine.execute("not a plan", None)

    def test_plan_as_dict_and_label(self, g):
        p = engine.plan(g, "count", calibration=DEFAULTS)
        d = p.as_dict()
        assert d["label"] == p.label and json.dumps(d)
        clone = p.with_(workers=3, executor="shared")
        assert clone.workers == 3 and p.workers == 1

    def test_storage_is_derived_from_the_member(self, g):
        """``storage`` is the member's compressed layout, "csr" without
        one; it is read-only and still a key of ``as_dict``."""
        from repro.core.family import INVARIANTS

        for number in range(1, 9):
            pinned = engine.plan(g, "count", invariant=number)
            assert pinned.storage == INVARIANTS[number].storage
            assert pinned.as_dict()["storage"] == pinned.storage
        assert engine.plan(g, "count").storage == "csr"
        assert Plan().storage == "csr"
        assert Plan(invariant=3).storage == "csc"
        with pytest.raises(TypeError):
            Plan(storage="csc")
        with pytest.raises(AttributeError):
            Plan().storage = "csc"


# ----------------------------------------------------------------------
# 4. explain / trace agreement
# ----------------------------------------------------------------------
class TestExplainTraceAgreement:
    def test_explain_marks_the_chosen_candidate(self):
        g = power_law_bipartite(60, 80, 600, seed=4)
        p = engine.plan(g, "count", calibration=DEFAULTS)
        text = engine.explain(p, g, calibration=DEFAULTS)
        assert p.label in text
        assert "chosen: " + p.label in text
        assert "rule: no fixed-side pin" in text
        marked = [ln for ln in text.splitlines() if ln.startswith("*")]
        assert len(marked) == 1 and p.label in marked[0]
        for cand in p.candidates:
            assert cand.label in text

    def test_explain_prints_the_pinned_rule_and_an_unmodeled_row(self):
        g = power_law_bipartite(60, 80, 600, seed=4)
        p = engine.plan(g, "count", invariant=3, calibration=DEFAULTS)
        text = engine.explain(p, g, calibration=DEFAULTS)
        assert "rule: pins given" in text
        (marked,) = [ln for ln in text.splitlines() if ln.startswith("*")]
        assert p.label in marked and marked.rstrip().endswith("-")

    def test_explain_renders_graph_and_calibration_provenance(self):
        g = gnm_bipartite(10, 12, 40, seed=1)
        p = engine.plan(g, "count", calibration=DEFAULTS)
        text = engine.explain(p, g, calibration=DEFAULTS)
        assert "nnz=40" in text
        assert "defaults" in text  # uncalibrated provenance line

    def test_span_attributes_agree_with_explain(self):
        g = power_law_bipartite(60, 80, 600, seed=4)
        with obs.capture():
            p = engine.plan(g, "count", calibration=DEFAULTS)
            p.execute(g)
            records = obs.trace_records()
        spans = {r["name"]: r for r in records}
        plan_span = spans["engine.plan"]
        exec_span = spans["engine.execute"]
        assert plan_span["attrs"]["chosen"] == p.label
        assert exec_span["attrs"]["chosen"] == p.label
        assert exec_span["attrs"]["invariant"] == p.invariant
        assert exec_span["attrs"]["strategy"] == p.strategy
        assert "actual_ms" in exec_span["attrs"]
        text = engine.explain(p, g, calibration=DEFAULTS)
        assert plan_span["attrs"]["chosen"] in text

    def test_plan_counters(self):
        g = gnm_bipartite(20, 25, 80, seed=3)
        with obs.capture() as m:
            p = engine.plan(g, "count", calibration=DEFAULTS)
            engine.execute(p, g)
        assert m.value("engine.plan.calls") == 1
        assert m.value("engine.plan.workload.count") == 1
        assert m.value(f"engine.plan.strategy.{p.strategy}") == 1
        assert m.value("engine.execute.calls") == 1
        assert m.histogram("engine.actual_ms").count == 1

    def test_engine_is_silent_when_obs_disabled(self):
        g = gnm_bipartite(20, 25, 80, seed=3)
        before = len(obs.registry())
        assert not obs.is_enabled()
        engine.plan(g, "count", calibration=DEFAULTS).execute(g)
        assert len(obs.registry()) == before


# ----------------------------------------------------------------------
# 5. calibration
# ----------------------------------------------------------------------
class TestCalibration:
    def test_defaults_when_file_missing(self, tmp_path):
        table = load_calibration(str(tmp_path / "nope.json"))
        assert not table.calibrated and table.source is None
        assert table.coefficients == DEFAULT_COEFFICIENTS
        assert "defaults" in table.origin

    def test_defaults_when_file_corrupt(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        table = load_calibration(str(path))
        assert not table.calibrated

    def test_save_load_round_trip(self, tmp_path):
        coeffs = json.loads(json.dumps(DEFAULT_COEFFICIENTS))
        coeffs["ns_per_op"]["stream"] = 123.5
        path = str(tmp_path / "cal.json")
        save_calibration(CalibrationTable(coeffs, calibrated=True), path)
        loaded = load_calibration(path)
        assert loaded.calibrated and loaded.source == path
        assert loaded.ns_per_op("stream") == 123.5
        # untouched keys merged over defaults
        assert loaded.stream_batch_ns == DEFAULT_COEFFICIENTS["stream_batch_ns"]
        assert "calibrated" in loaded.origin

    def test_partial_file_merges_over_defaults(self, tmp_path):
        path = tmp_path / "partial.json"
        # a file from an older release still carries the deleted terms
        # (compact decode, the scored grid's per-strategy ops, panels,
        # pool and reorder terms): it loads, with those keys ignored
        path.write_text(json.dumps({
            "coefficients": {
                "ns_per_op": {"priority": 1.25, "blocked": 3.5},
                "ns_per_pivot": {"scratch": 8000.0},
                "ns_per_panel": 60000.0,
                "decode_ns_per_edge": 6.0,
            },
        }))
        table = load_calibration(str(path))
        assert table.ns_per_op("priority") == 1.25
        assert table.ns_per_op("stream") == (
            DEFAULT_COEFFICIENTS["ns_per_op"]["stream"]
        )
        assert table.coefficients == {
            "ns_per_op": {
                "priority": 1.25,
                "stream": DEFAULT_COEFFICIENTS["ns_per_op"]["stream"],
            },
            "ns_per_edge": DEFAULT_COEFFICIENTS["ns_per_edge"],
            "stream_batch_ns": DEFAULT_COEFFICIENTS["stream_batch_ns"],
        }

    def test_non_finite_coefficients_fall_back_to_defaults(self, tmp_path):
        # json writes float("nan") as NaN and reads it back as a float
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"calibrated": True, "coefficients": {
            "ns_per_op": {"priority": float("nan"), "stream": float("inf")},
            "ns_per_edge": {"priority": "fast"},
            "stream_batch_ns": True,
        }}))
        table = load_calibration(str(path))
        assert table.coefficients == DEFAULT_COEFFICIENTS
        # the file says calibrated, but no coefficient came from it
        assert not table.calibrated and table.source == str(path)
        g = power_law_bipartite(50, 60, 400, seed=6)
        got = engine.plan(g, "count", calibration=table)
        want = engine.plan(g, "count", calibration=DEFAULTS)
        assert got.est_seconds == want.est_seconds
        line = next(
            ln for ln in engine.explain(got, g, calibration=table).splitlines()
            if ln.startswith("calibration:")
        )
        assert line == f"calibration: defaults ({path} overrides none of them)"

    def test_wrongly_shaped_file_plans_with_defaults(self, tmp_path):
        path = tmp_path / "shape.json"
        for payload in ([1, 2], {"coefficients": [1]},
                        {"coefficients": {"ns_per_op": 5.0}}):
            path.write_text(json.dumps({"calibrated": True, **payload}
                                       if isinstance(payload, dict) else payload))
            table = load_calibration(str(path))
            assert table.coefficients == DEFAULT_COEFFICIENTS, payload
            assert not table.calibrated, payload
            assert table.origin.startswith("defaults"), payload

    def test_one_finite_coefficient_keeps_the_file_calibrated(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"calibrated": True, "coefficients": {
            "ns_per_op": {"priority": float("nan"), "stream": 99.0},
            "ns_per_edge": {"priority": None},
        }}))
        table = load_calibration(str(path))
        assert table.calibrated
        assert table.ns_per_op("stream") == 99.0
        assert table.ns_per_op("priority") == (
            DEFAULT_COEFFICIENTS["ns_per_op"]["priority"]
        )
        assert table.origin == f"calibrated: {path}"

    def test_calibrate_rejects_fewer_than_one_repeat(self, tmp_path):
        path = tmp_path / "never.json"
        for repeats in (0, -2):
            with pytest.raises(ValueError, match="repeats must be >= 1"):
                calibrate(path=str(path), repeats=repeats, persist=True)
        assert not path.exists()

    def test_the_table_holds_four_coefficients(self):
        leaves = [
            (k, sub) for k, v in DEFAULT_COEFFICIENTS.items()
            for sub in (v if isinstance(v, dict) else [None])
        ]
        assert sorted(leaves, key=str) == sorted([
            ("ns_per_edge", "priority"), ("ns_per_op", "priority"),
            ("ns_per_op", "stream"), ("stream_batch_ns", None),
        ], key=str)

    def test_calibrate_measures_positive_coefficients(self, tmp_path):
        path = str(tmp_path / "measured.json")
        table = calibrate(path=path, repeats=1, persist=True)
        assert table.calibrated and table.source == path
        for strategy in ("priority", "stream"):
            assert table.ns_per_op(strategy) > 0
        assert table.ns_per_edge("priority") > 0
        assert table.stream_batch_ns > 0
        # persisted file loads back as the same coefficients
        again = load_calibration(path)
        assert again.coefficients == table.coefficients
        # a calibrated table still plans correctly
        g = power_law_bipartite(50, 60, 400, seed=6)
        p = engine.plan(g, "count", calibration=table)
        assert p.execute(g) == butterflies_spec_bform(g)


# ----------------------------------------------------------------------
# 6. entry points
# ----------------------------------------------------------------------
class TestBackCompatShims:
    def test_auto_path_is_warning_free(self):
        g = power_law_bipartite(30, 40, 200, seed=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            count_butterflies(g)
            p = engine.plan(g, "count", calibration=DEFAULTS)
            count_butterflies(g, plan=p)

    def test_expert_entry_point_stays_warning_free(self):
        g = gnm_bipartite(20, 20, 80, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for number in range(1, 9):
                assert count_butterflies_unblocked(g, number) == (
                    butterflies_spec_bform(g)
                )

    def test_peeling_entry_points_accept_plans(self):
        g = power_law_bipartite(40, 50, 300, seed=3)
        tip_plan = engine.plan(g, "tip", k=2, calibration=DEFAULTS)
        # k_tip has nothing left for a plan to choose: the engine runs it
        assert (
            engine.execute(tip_plan, g).kept.tolist()
            == k_tip(g, 2).kept.tolist()
        )
        wing_plan = engine.plan(g, "wing", k=2, calibration=DEFAULTS)
        assert engine.execute(wing_plan, g).n_edges == k_wing(g, 2).n_edges

    def test_workmodel_import_untangled(self):
        """The work model lives in core.workinfo; the parallel balancer
        consumes the same public API."""
        from repro.core import parallel, workinfo

        # each pool row balances on the model work_profile sums
        for strategy, row in parallel._POOL_STRATEGIES.items():
            assert row.work is workinfo.PIVOT_WORK[strategy]
        # the package serves them from the module that defines them
        from repro import core

        for name in ("pivot_work_estimate", "spmv_scan_lengths"):
            assert core._LAZY[name] == "repro.core.workinfo"


# ----------------------------------------------------------------------
# candidate table hygiene
# ----------------------------------------------------------------------
class TestCandidateTable:
    def test_candidates_are_sorted_into_the_explain_table(self):
        """Only stream_apply scores rows: cheapest first, head chosen,
        both rows in the explain table."""
        g = power_law_bipartite(60, 80, 600, seed=4)
        batch = ([(0, 1), (2, 3)], [])
        cands = candidate_plans(
            g, "stream_apply", batch=batch, calibration=DEFAULTS
        )
        chosen = engine.plan(
            g, "stream_apply", batch=batch, calibration=DEFAULTS
        )
        assert len(cands) == 2
        assert [c.est_seconds for c in cands] == sorted(
            c.est_seconds for c in cands
        )
        assert chosen == cands[0]
        text = engine.explain(chosen, g, calibration=DEFAULTS)
        assert "rule: stream_apply" in text
        for cand in cands:
            assert cand.label in text


# ----------------------------------------------------------------------
# the rule table
# ----------------------------------------------------------------------
class TestRuleTable:
    """One row per rule line (docs/engine.md): what each pin set plans."""

    @pytest.fixture(scope="class")
    def g(self):
        # n_left < n_right: the smaller side is left, member 6
        return power_law_bipartite(60, 80, 600, seed=4)

    @pytest.mark.parametrize("workload", ["count", "vertex-counts", "tip"])
    @pytest.mark.parametrize("pins", [{}, {"executor": "serial"},
                                      {"workers": 1}, {"layout": "raw"}])
    def test_unpinned_plans_are_priority(self, g, workload, pins):
        p = engine.plan(g, workload, k=1, calibration=DEFAULTS, **pins)
        assert (p.strategy, p.executor, p.workers, p.layout) == (
            "priority", "serial", 1, "raw",
        )
        assert p.invariant is None and p.est_seconds > 0
        assert len(p.candidates) == 1

    @pytest.mark.parametrize("pins, expected", [
        # (invariant, strategy, executor, workers, layout, block_size?)
        ({"invariant": 3}, (3, "blocked", "serial", 1, "raw", True)),
        ({"strategy": "scratch"}, (6, "scratch", "serial", 1, "raw", False)),
        ({"strategy": "wedge"}, (6, "wedge", "serial", 1, "raw", False)),
        ({"workers": 2}, (6, "wedge", "shared", 2, "raw", False)),
        ({"executor": "shared", "workers": 3},
         (6, "wedge", "shared", 3, "raw", False)),
        ({"strategy": "spmv", "workers": 2},
         (6, "spmv", "shared", 2, "raw", False)),
        ({"layout": "mmap", "invariant": 2},
         (2, "blocked", "serial", 1, "mmap", True)),
        ({"layout": "mmap"}, (6, "blocked", "serial", 1, "mmap", True)),
        ({"block_size": 32}, (6, "blocked", "serial", 1, "raw", True)),
        ({"invariant": 1, "strategy": "spmv"},
         (1, "spmv", "serial", 1, "raw", False)),
    ])
    def test_count_pins_are_filled_by_the_rule(self, g, pins, expected):
        p = engine.plan(g, "count", calibration=DEFAULTS, **pins)
        got = (p.invariant, p.strategy, p.executor, p.workers, p.layout,
               p.block_size is not None)
        assert got == expected
        assert p.est_seconds is None and len(p.candidates) == 1
        if "block_size" in pins:
            assert p.block_size == 32
        assert p.execute(g) == butterflies_spec_bform(g)

    def test_shared_without_workers_takes_the_pool_default(self, g, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        p = engine.plan(g, "count", executor="shared", calibration=DEFAULTS)
        assert p.workers == engine.DEFAULT_MAX_WORKERS

    def test_shared_on_one_cpu_still_runs_a_pool(self, g, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        p = engine.plan(
            g, "count", executor="shared", strategy="scratch",
            calibration=DEFAULTS,
        )
        assert (p.executor, p.workers) == ("shared", 2)
        assert p.label.endswith("-sharedx2")
        pinned = engine.plan(
            g, "count", executor="shared", strategy="scratch", workers=1,
            calibration=DEFAULTS,
        )
        assert (pinned.executor, pinned.workers) == ("shared", 1)
        assert pinned.label.endswith("-serial")

    def test_smaller_side_rule_follows_the_shape(self, g):
        tall = g.swap_sides()  # now n_right < n_left: member 2
        assert engine.plan(tall, "count", strategy="scratch").invariant == 2
        square = BipartiteGraph.empty(5, 5)  # ties pick 2
        assert select_count_invariant(square) == 2

    @pytest.mark.parametrize("workload", ["vertex-counts", "tip", "wing"])
    @pytest.mark.parametrize("pins", [
        {"invariant": 3}, {"strategy": "blocked"}, {"block_size": 8},
        {"layout": "mmap"},
    ], ids=["invariant", "blocked", "block_size", "mmap"])
    def test_per_vertex_fixed_side_pins_are_an_error(self, g, workload, pins):
        """Per-vertex workloads run only the priority kernel: a pin that
        would choose another kernel is one ValueError, not a dropped pin."""
        with pytest.raises(
            ValueError,
            match=f"workload '{workload}' runs only the vertex-priority kernel",
        ):
            engine.plan(g, workload, side="right", k=1, calibration=DEFAULTS,
                        **pins)

    @pytest.mark.parametrize("workload", ["vertex-counts", "tip", "wing"])
    @pytest.mark.parametrize("pins", [{"executor": "shared"}, {"workers": 2}])
    def test_per_vertex_pool_pins_are_an_error(self, g, workload, pins):
        with pytest.raises(ValueError, match=f"'{workload}' is serial-only"):
            engine.plan(g, workload, k=1, calibration=DEFAULTS, **pins)

    @pytest.mark.parametrize("workload", ["vertex-counts", "tip", "wing"])
    def test_hand_built_pooled_per_vertex_plan_does_not_run(self, g, workload):
        """A per-vertex plan built by hand (not by the planner) that is
        pooled, or on any strategy but ``priority``, is refused when the
        record is built, before any kernel runs."""
        with pytest.raises(ValueError, match="runs serially"):
            engine.execute(
                engine.Plan(workload=workload, strategy="blocked", k=1,
                            executor="shared", workers=2),
                g,
            )
        with pytest.raises(ValueError, match="strategy='blocked'"):
            engine.execute(
                engine.Plan(workload=workload, strategy="blocked", k=1), g
            )
        serial = engine.plan(g, workload, k=1, calibration=DEFAULTS)
        with pytest.raises(ValueError, match="runs serially"):
            serial.with_(executor="shared", workers=2)
        with pytest.raises(ValueError, match="strategy 'priority'"):
            serial.with_(strategy="blocked")

    @pytest.mark.parametrize("workload", ["vertex-counts", "tip", "wing"])
    def test_per_vertex_workloads_reject_family_strategies(self, g, workload):
        with pytest.raises(ValueError, match="runs only the vertex-priority"):
            engine.plan(g, workload, strategy="scratch", calibration=DEFAULTS)

    def test_wing_is_its_one_priority_row(self, g):
        """One ranked support pass modelled, its rounds not priced."""
        from repro.core.priority import priority_wedge_work

        p = engine.plan(g, "wing", k=1, calibration=DEFAULTS)
        assert (p.strategy, p.executor, p.est_seconds) == ("priority", "serial", None)
        assert (p.block_size, p.modeled_ops) == (None, priority_wedge_work(g))
        assert (p.label, len(p.candidates)) == ("priority-serial", 1)

    def test_mmap_with_a_pool_is_an_error(self, g):
        with pytest.raises(ValueError, match="layout 'mmap' is serial-only"):
            engine.plan(g, "count", layout="mmap", workers=2,
                        calibration=DEFAULTS)
