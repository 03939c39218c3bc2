"""Unit and integration tests for the observability layer (:mod:`repro.obs`).

Covers the registry primitives (counter/gauge/histogram, kind binding,
snapshot/merge exactness), the sinks (memory, JSONL round-trip, table
renderer), spans (timing, nesting, disabled no-op), the module-level
state machine (enable/disable/disabled()/capture()), and the ISSUE's
acceptance criterion: one enabled run across blocked counting, peeling
and the shared-memory executor emits >=10 distinct metric names spanning
the kernels / blocked / peel / executor layers.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.core import (
    count_butterflies,
    count_butterflies_blocked,
    count_butterflies_parallel,
    k_tip,
    k_wing,
)
from repro.graphs import power_law_bipartite
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    JsonlSink,
    MemorySink,
    Metrics,
    flush,
    read_jsonl,
    render_table,
    snapshot_records,
)


# ----------------------------------------------------------------------
# registry primitives
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_increments_exactly(self):
        m = Metrics()
        m.inc("a.calls")
        m.inc("a.calls", 41)
        assert m.value("a.calls") == 42
        assert m.counter("a.calls").value == 42

    def test_gauge_last_write_wins(self):
        m = Metrics()
        m.set("a.level", 3)
        m.set("a.level", 7)
        assert m.value("a.level") == 7

    def test_histogram_summary_fields(self):
        m = Metrics()
        for v in (5, 1, 3):
            m.observe("a.sizes", v)
        h = m.histogram("a.sizes")
        assert (h.count, h.total, h.min, h.max) == (3, 9, 1, 5)
        assert h.mean == 3
        # value() on a histogram returns the total
        assert m.value("a.sizes") == 9

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram().mean == 0

    def test_name_bound_to_one_kind(self):
        m = Metrics()
        m.inc("a.x")
        with pytest.raises(TypeError):
            m.set("a.x", 1)
        with pytest.raises(TypeError):
            m.observe("a.x", 1)

    def test_value_default_for_missing_name(self):
        m = Metrics()
        assert m.value("nope", default=-1) == -1
        assert "nope" not in m

    def test_names_len_contains(self):
        m = Metrics()
        m.inc("b.x")
        m.inc("a.y")
        assert m.names() == ["a.y", "b.x"]
        assert len(m) == 2
        assert "a.y" in m

    def test_reset_clears_everything(self):
        m = Metrics()
        m.inc("a.x")
        m.observe("a.h", 1)
        m.reset()
        assert len(m) == 0

    def test_layers_are_first_dot_prefixes(self):
        m = Metrics()
        for name in ("kernels.a", "kernels.b.c", "peel.tip.rounds", "flat"):
            m.inc(name)
        assert m.layers() == {"kernels", "peel", "flat"}


class TestSnapshotMerge:
    def test_snapshot_is_plain_and_detached(self):
        m = Metrics()
        m.inc("a.x", 2)
        snap = m.snapshot()
        assert snap == {"a.x": {"type": "counter", "value": 2}}
        m.inc("a.x")  # mutating after snapshot does not affect the copy
        assert snap["a.x"]["value"] == 2

    def test_merge_counters_add(self):
        a, b = Metrics(), Metrics()
        a.inc("x", 2)
        b.inc("x", 3)
        a.merge(b.snapshot())
        assert a.value("x") == 5

    def test_merge_gauges_take_incoming(self):
        a, b = Metrics(), Metrics()
        a.set("g", 1)
        b.set("g", 99)
        a.merge(b.snapshot())
        assert a.value("g") == 99

    def test_merge_histograms_exact(self):
        a, b = Metrics(), Metrics()
        for v in (1, 10):
            a.observe("h", v)
        for v in (0, 5):
            b.observe("h", v)
        a.merge(b.snapshot())
        h = a.histogram("h")
        assert (h.count, h.total, h.min, h.max) == (4, 16, 0, 10)

    def test_merge_into_empty_registry_creates_metrics(self):
        a, b = Metrics(), Metrics()
        b.inc("c", 7)
        b.set("g", 3)
        b.observe("h", 2)
        a.merge(b.snapshot())
        assert a.snapshot() == b.snapshot()

    def test_merge_histogram_with_empty_min_max(self):
        a = Metrics()
        a.observe("h", 4)
        a.merge({"h": {"type": "histogram", "count": 0, "total": 0,
                       "min": None, "max": None}})
        h = a.histogram("h")
        assert (h.count, h.min, h.max) == (1, 4, 4)

    def test_primitive_kinds(self):
        assert Counter.kind == "counter"
        assert Gauge.kind == "gauge"
        assert Histogram.kind == "histogram"


# ----------------------------------------------------------------------
# gauge merge policies (PR 3 satellite: deterministic worker merges)
# ----------------------------------------------------------------------
class TestGaugePolicies:
    def test_default_policy_is_last(self):
        g = Gauge()
        assert g.policy == "last"
        assert g.as_dict() == {"type": "gauge", "value": 0, "policy": "last"}

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown gauge policy"):
            Gauge(policy="average")

    def test_sum_policy_merges_order_independently(self):
        """The ``peel.*.kept`` determinism criterion: shard-additive
        gauges fold identically under any worker snapshot order."""
        shards = []
        for value in (7, 3, 5):
            m = Metrics()
            m.set("peel.tip.kept", value, policy="sum")
            shards.append(m.snapshot())
        forward, backward = Metrics(), Metrics()
        for snap in shards:
            forward.merge(snap)
        for snap in reversed(shards):
            backward.merge(snap)
        assert forward.value("peel.tip.kept") == 15
        assert backward.value("peel.tip.kept") == 15

    def test_max_policy(self):
        a = Metrics()
        a.set("hi", 3, policy="max")
        a.merge({"hi": {"type": "gauge", "value": 9, "policy": "max"}})
        a.merge({"hi": {"type": "gauge", "value": 1, "policy": "max"}})
        assert a.value("hi") == 9

    def test_policy_adopted_on_first_sight_merge(self):
        a = Metrics()
        a.merge({"g": {"type": "gauge", "value": 4, "policy": "sum"}})
        a.merge({"g": {"type": "gauge", "value": 6, "policy": "sum"}})
        assert a.value("g") == 10
        assert a.gauge("g").policy == "sum"

    def test_policy_rebind_rejected(self):
        m = Metrics()
        m.set("g", 1, policy="sum")
        with pytest.raises(ValueError, match="bound to policy"):
            m.set("g", 2, policy="max")
        # policy=None means "whatever it already is"
        m.set("g", 2)
        assert m.value("g") == 2

    def test_set_always_overwrites_regardless_of_policy(self):
        m = Metrics()
        m.set("g", 5, policy="sum")
        m.set("g", 2)
        assert m.value("g") == 2  # policy governs merges, not set()

    def test_obs_gauge_helper_passes_policy(self):
        with obs.capture() as metrics:
            obs.gauge("peel.test.kept", 4, policy="sum")
        assert metrics.gauge("peel.test.kept").policy == "sum"


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
class TestSinks:
    def test_memory_sink_flush(self):
        m = Metrics()
        m.inc("a.x", 4)
        sink = MemorySink()
        records = flush(m, sink, run="r1", command="test")
        assert sink.records == records
        assert sink.names() == {"a.x"}
        (rec,) = records
        assert rec["name"] == "a.x"
        assert rec["value"] == 4
        assert rec["run"] == "r1"
        assert rec["command"] == "test"
        assert "ts" in rec

    def test_snapshot_records_sorted_and_run_generated(self):
        m = Metrics()
        m.inc("b.x")
        m.inc("a.x")
        records = snapshot_records(m.snapshot())
        assert [r["name"] for r in records] == ["a.x", "b.x"]
        assert all(r["run"] == records[0]["run"] for r in records)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        m = Metrics()
        m.inc("a.calls", 3)
        m.set("a.gauge", 8)
        m.observe("a.hist", 2.5)
        flush(m, JsonlSink(path), run="first")
        flush(m, JsonlSink(path), run="second")  # appended, not truncated

        # file is valid JSONL
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 6
        for line in lines:
            json.loads(line)

        merged = read_jsonl(path)
        # counters and histograms add across runs; gauges keep the last
        assert merged.value("a.calls") == 6
        assert merged.value("a.gauge") == 8
        h = merged.histogram("a.hist")
        assert (h.count, h.total) == (2, 5.0)

    def test_read_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"name": "x", "type": "counter", "value": 1}\n'
            "\n"
            '{"name": "x", "type": "counter", "value": 2}\n'
        )
        assert read_jsonl(path).value("x") == 3

    def test_jsonl_numpy_scalars_serialise(self, tmp_path):
        import numpy as np

        path = tmp_path / "np.jsonl"
        m = Metrics()
        m.inc("a.n", np.int64(5))
        flush(m, JsonlSink(path))
        assert read_jsonl(path).value("a.n") == 5

    def test_render_table_groups_by_layer(self):
        m = Metrics()
        m.inc("kernels.gather.calls", 2)
        m.inc("peel.tip.rounds", 3)
        m.observe("peel.tip.seconds", 0.5)
        out = render_table(m, title="demo")
        assert out.splitlines()[0] == "demo"
        assert "kernels.gather.calls" in out
        assert "peel.tip.rounds" in out
        assert "count=1" in out  # histogram detail line
        # a blank separator between the kernels and peel groups
        assert "\n\n" in out

    def test_render_table_empty(self):
        assert "(no metrics recorded)" in render_table(Metrics())


# ----------------------------------------------------------------------
# module-level state machine
# ----------------------------------------------------------------------
class TestObsState:
    def test_disabled_by_default_records_nothing(self):
        # the suite never sets REPRO_OBS, so module import left obs off
        assert not obs.is_enabled()
        before = len(obs.registry())
        obs.inc("test.should_not_exist")
        obs.observe("test.should_not_exist.h", 1)
        obs.gauge("test.should_not_exist.g", 1)
        assert "test.should_not_exist" not in obs.registry()
        assert len(obs.registry()) == before

    def test_capture_is_hermetic(self):
        with obs.capture() as metrics:
            assert obs.is_enabled()
            obs.inc("test.inside", 2)
            assert metrics.value("test.inside") == 2
        # restored: disabled again, and the capture registry is gone
        assert not obs.is_enabled()
        assert "test.inside" not in obs.registry()

    def test_capture_nested(self):
        with obs.capture() as outer:
            obs.inc("test.outer")
            with obs.capture() as inner:
                obs.inc("test.inner")
            assert inner.value("test.inner") == 1
            assert "test.inner" not in outer
            obs.inc("test.outer")
            assert outer.value("test.outer") == 2

    def test_disabled_context_manager(self):
        with obs.capture() as metrics:
            obs.inc("test.a")
            with obs.disabled():
                assert not obs.is_enabled()
                obs.inc("test.b")
            assert obs.is_enabled()
            obs.inc("test.a")
        assert metrics.value("test.a") == 2
        assert "test.b" not in metrics

    def test_enable_disable_round_trip(self):
        with obs.capture():
            obs.disable()
            assert not obs.is_enabled()
            obs.inc("test.off")
            obs.enable()
            obs.inc("test.on")
            assert "test.off" not in obs.registry()
            assert obs.registry().value("test.on") == 1

    def test_merge_snapshot_not_gated_on_enabled(self):
        with obs.capture() as metrics:
            obs.disable()
            obs.merge_snapshot({"worker.x": {"type": "counter", "value": 5}})
        assert metrics.value("worker.x") == 5

    def test_render_and_snapshot_helpers(self):
        with obs.capture():
            obs.inc("test.render", 3)
            assert "test.render" in obs.render(title="t")
            assert obs.snapshot()["test.render"]["value"] == 3

    def test_dump_jsonl_writes_registry(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        with obs.capture():
            obs.inc("test.dumped", 9)
            records = obs.dump_jsonl(path, run="r", command="unit")
        assert len(records) == 1
        assert read_jsonl(path).value("test.dumped") == 9


class TestSpans:
    def test_span_records_calls_and_seconds(self):
        with obs.capture() as metrics:
            with obs.span("test.region"):
                pass
            with obs.span("test.region"):
                pass
        assert metrics.value("test.region.calls") == 2
        h = metrics.histogram("test.region.seconds")
        assert h.count == 2
        assert h.total >= 0

    def test_span_noop_when_disabled(self):
        assert obs.span("test.nothing") is obs._NOOP_SPAN
        with obs.span("test.nothing"):
            pass
        assert "test.nothing.calls" not in obs.registry()

    def test_spans_nest(self):
        with obs.capture() as metrics:
            with obs.span("test.outer"):
                with obs.span("test.inner"):
                    pass
        assert metrics.value("test.outer.calls") == 1
        assert metrics.value("test.inner.calls") == 1
        outer = metrics.histogram("test.outer.seconds")
        inner = metrics.histogram("test.inner.seconds")
        assert outer.total >= inner.total

    def test_span_records_even_on_exception(self):
        with obs.capture() as metrics:
            with pytest.raises(ValueError):
                with obs.span("test.boom"):
                    raise ValueError("x")
        assert metrics.value("test.boom.calls") == 1

    def test_span_disabled_inside_skips_record(self):
        with obs.capture() as metrics:
            span = obs.span("test.toggled")
            with span:
                obs.disable()
            obs.enable()
        assert "test.toggled.calls" not in metrics


# ----------------------------------------------------------------------
# instrumentation integration: the >=10 distinct names criterion
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", autouse=True)
def _retire_shared_executors():
    """Start cold — the workload below asserts a pool start — and leave no
    warm default executor (and no published /dev/shm segment) behind:
    the sharedmem suite asserts segment-leak-freedom globally."""
    from repro.parallel import shutdown_default_executors

    shutdown_default_executors()
    yield
    shutdown_default_executors()


@pytest.fixture(scope="module")
def workload_metrics():
    """One enabled run across every instrumented layer."""
    g = power_law_bipartite(150, 200, 1500, seed=3)
    with obs.capture() as metrics:
        expected = count_butterflies(g)
        count_butterflies_blocked(g, block_size=64)
        k_tip(g, 2)
        k_wing(g, 2)
        got = count_butterflies_parallel(g, n_workers=2, executor="shared")
    assert got == expected
    return metrics


class TestInstrumentationCoverage:
    def test_at_least_ten_distinct_names(self, workload_metrics):
        names = workload_metrics.names()
        assert len(names) >= 10, names

    def test_names_span_all_layers(self, workload_metrics):
        layers = workload_metrics.layers()
        assert {"kernels", "blocked", "peel", "executor",
                "family", "parallel"} <= layers, layers

    def test_kernel_counters_fired(self, workload_metrics):
        m = workload_metrics
        assert m.value("kernels.panel.calls") > 0
        assert m.value("kernels.panel.wedges") > 0
        assert m.value("kernels.panel.bytes") > 0

    def test_blocked_counters_fired(self, workload_metrics):
        m = workload_metrics
        assert m.value("blocked.panels") > 0
        assert m.value("blocked.count.calls") == 1
        assert m.histogram("blocked.panel.wedges").count > 0

    def test_peeling_counters_fired(self, workload_metrics):
        m = workload_metrics
        assert m.value("peel.tip.rounds") >= 1
        assert m.value("peel.wing.rounds") >= 1
        assert m.value("peel.tip.calls") == 1
        assert m.value("peel.wing.calls") == 1

    def test_executor_counters_fired(self, workload_metrics):
        m = workload_metrics
        assert m.value("executor.pool_starts") >= 1
        assert m.value("executor.publish") >= 1
        assert m.value("executor.publish_bytes") > 0
        assert m.value("executor.tasks") >= 2
        assert m.value("executor.dispatch") >= 1
        assert m.value("parallel.executor.shared") == 1

    def test_worker_deltas_merged_back(self, workload_metrics):
        # gather runs inside the pool workers too; if deltas merge, the
        # serial count alone cannot account for all recorded calls.
        serial = Metrics()
        g = power_law_bipartite(150, 200, 1500, seed=3)
        with obs.capture() as m2:
            count_butterflies_parallel(g, n_workers=2, executor="shared")
        assert m2.value("kernels.gather.calls") > 0
        del serial  # silence lint: comparison is against zero above

    def test_disabled_workload_records_nothing(self):
        g = power_law_bipartite(60, 80, 400, seed=5)
        before = len(obs.registry())
        assert not obs.is_enabled()
        count_butterflies(g)
        count_butterflies_blocked(g, block_size=32)
        k_tip(g, 1)
        assert len(obs.registry()) == before


# ----------------------------------------------------------------------
# quantile histograms (log-scale buckets, Obs v3)
# ----------------------------------------------------------------------
import random

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import BUCKETS_PER_OCTAVE


class TestHistogramQuantiles:
    def test_quantiles_within_bucket_resolution(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        # bucket bounds are 2**(1/4) apart: ~19% worst-case resolution
        resolution = 2 ** (1 / BUCKETS_PER_OCTAVE)
        assert 50 / resolution <= h.quantile(0.50) <= 50 * resolution
        assert 90 / resolution <= h.quantile(0.90) <= 90 * resolution
        # the tail rounds UP to the observed extreme, clamped at max
        assert 99 * 0.9 <= h.quantile(0.99) <= 100.0

    def test_quantile_bounds_clamp_to_observed_range(self):
        h = Histogram()
        for v in (3.0, 5.0, 7.0):
            h.observe(v)
        assert h.quantile(0.0) >= 3.0
        assert h.quantile(1.0) <= 7.0

    def test_empty_histogram_has_no_quantiles(self):
        h = Histogram()
        assert h.quantile(0.5) is None
        assert h.percentiles() == {"p50": None, "p90": None, "p99": None}

    def test_invalid_q_rejected(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_nonpositive_values_go_to_underflow(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(-2.0)
        h.observe(4.0)
        assert h.underflow == 2
        # half the mass is at or below min: p50 reports the minimum
        assert h.quantile(0.5) == -2.0

    def test_as_dict_round_trips_through_json(self):
        h = Histogram()
        for v in (0.001, 0.5, 2.0, 1000.0, -1.0):
            h.observe(v)
        record = json.loads(json.dumps(h.as_dict()))
        clone = Histogram.from_dict(record)
        assert clone.as_dict() == h.as_dict()
        assert clone.quantile(0.5) == h.quantile(0.5)

    def test_old_record_without_buckets_stays_compatible(self):
        # pre-v3 records carry only count/total/min/max; the scalar
        # folds must stay bitwise-identical and quantiles degrade to None
        old = {"type": "histogram", "count": 2, "total": 1.0,
               "min": 0.25, "max": 0.75}
        h = Histogram.from_dict(old)
        assert h.count == 2
        assert h.total == 1.0
        assert h.min == 0.25
        assert h.max == 0.75
        assert h.quantile(0.5) is None

    def test_render_table_shows_percentile_columns(self):
        m = Metrics()
        for v in (0.1, 0.2, 0.4):
            m.observe("test.latency", v)
        out = render_table(m)
        assert "p50=" in out
        assert "p90=" in out
        assert "p99=" in out


class TestHistogramMergeProperties:
    """merge_dict is associative and commutative over worker deltas."""

    @staticmethod
    def _delta(values):
        h = Histogram()
        for v in values:
            h.observe(v)
        return h.as_dict()

    @staticmethod
    def _structural(record):
        """The exactly-mergeable fields (total is float-order sensitive)."""
        return (record["count"], record["underflow"], record["buckets"],
                record["min"], record["max"])

    @given(
        groups=st.lists(
            st.lists(
                st.floats(min_value=1e-6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                max_size=8,
            ),
            min_size=1, max_size=5,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_commutative_any_merge_order(self, groups, seed):
        deltas = [self._delta(values) for values in groups]
        ordered = Histogram()
        for d in deltas:
            ordered.merge_dict(d)
        shuffled_deltas = list(deltas)
        random.Random(seed).shuffle(shuffled_deltas)
        shuffled = Histogram()
        for d in shuffled_deltas:
            shuffled.merge_dict(d)
        a, b = ordered.as_dict(), shuffled.as_dict()
        assert self._structural(a) == self._structural(b)
        assert a["total"] == pytest.approx(b["total"], rel=1e-9, abs=1e-12)

    @given(
        groups=st.lists(
            st.lists(
                st.floats(min_value=1e-6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                max_size=6,
            ),
            min_size=3, max_size=3,
        ),
    )
    def test_associative_pairwise_grouping(self, groups):
        d1, d2, d3 = (self._delta(values) for values in groups)
        left = Histogram.from_dict(d1)
        left.merge_dict(d2)
        left = Histogram.from_dict(left.as_dict())
        left.merge_dict(d3)
        inner = Histogram.from_dict(d2)
        inner.merge_dict(d3)
        right = Histogram.from_dict(d1)
        right.merge_dict(inner.as_dict())
        assert self._structural(left.as_dict()) == self._structural(
            right.as_dict()
        )

    def test_merge_matches_direct_observation(self):
        values = [0.01, 0.5, 3.0, 3.1, 100.0, -1.0]
        direct = Histogram()
        for v in values:
            direct.observe(v)
        merged = Histogram()
        merged.merge_dict(self._delta(values[:3]))
        merged.merge_dict(self._delta(values[3:]))
        assert merged.as_dict() == direct.as_dict()
