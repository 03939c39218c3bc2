"""Engine integration for the ``stream_apply`` workload.

The planner must score batched incremental maintenance against a
from-scratch recount using the touched-wedge work model, honour strategy
pins, and ``execute`` must dispatch onto the streaming counter and hand
the mutated counter back through the stats dict.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import engine
from repro.core import count_butterflies
from repro.core.priority import priority_wedge_work
from repro.core.stream import StreamingButterflyCounter
from repro.core.workinfo import touched_wedge_work
from repro.engine import CalibrationTable
from repro.engine.plan import STREAM_STRATEGIES, WORKLOADS
from repro.graphs import BipartiteGraph, power_law_bipartite


@pytest.fixture(scope="module")
def graph():
    return power_law_bipartite(200, 250, 1500, seed=31)


def _batch(graph, size, seed=9):
    rng = np.random.default_rng(seed)
    return [
        (int(rng.integers(graph.n_left)), int(rng.integers(graph.n_right)))
        for _ in range(size)
    ]


def test_stream_apply_is_a_workload():
    assert "stream_apply" in WORKLOADS
    assert STREAM_STRATEGIES == ("incremental", "recount")


def test_candidate_table_scores_both_strategies(graph):
    cands = engine.candidate_plans(
        graph, "stream_apply", batch=(_batch(graph, 32), [])
    )
    assert sorted(c.strategy for c in cands) == ["incremental", "recount"]
    assert all(c.workload == "stream_apply" for c in cands)
    assert all(c.est_ms > 0 and c.modeled_ops > 0 for c in cands)
    # the table is sorted by estimated cost — the head is the choice
    assert cands[0].est_ms <= cands[-1].est_ms


def test_recount_models_one_priority_pass(graph):
    """A recount runs one per-vertex priority pass over both sides, so it
    pays the priority wedge work once — not a fixed-side pass per side."""
    (rec,) = engine.candidate_plans(
        graph, "stream_apply", strategy="recount", batch=(_batch(graph, 4), [])
    )
    deg_l = graph.degrees_left().astype(np.int64)
    deg_r = graph.degrees_right().astype(np.int64)
    assert rec.modeled_ops == priority_wedge_work(graph) == 8_226
    assert rec.modeled_ops < int(deg_l @ deg_l + deg_r @ deg_r)


def _skewed_script(graph, n_batches, seed=3):
    """Batches shaped like the e2e stream script: 500 uniform inserts, or
    a dense 20x25 community block every fourth batch, plus 200 deletes of
    present edges."""
    rng = np.random.default_rng(seed)
    edges = graph.edges()
    for i in range(n_batches):
        if i % 4 == 3:
            us = rng.choice(graph.n_left, size=20, replace=False)
            vs = rng.choice(graph.n_right, size=25, replace=False)
            insert = np.stack(np.meshgrid(us, vs, indexing="ij"), -1).reshape(-1, 2)
        else:
            insert = np.stack([
                rng.integers(0, graph.n_left, 500),
                rng.integers(0, graph.n_right, 500),
            ], axis=1)
        delete = edges[rng.choice(len(edges), size=200, replace=False)]
        yield insert, delete


def test_auto_plan_stays_incremental_on_a_skewed_script():
    """A recount costs ~2x an incremental batch on this shape; the priority
    recount term must not undercut the incremental estimate."""
    graph = power_law_bipartite(30_000, 40_000, 120_000, seed=5)
    for insert, delete in _skewed_script(graph, 8):
        chosen = engine.plan(
            graph, "stream_apply", batch=(insert, delete),
            calibration=CalibrationTable(),
        )
        assert chosen.strategy == "incremental"


def test_pruned_recount_row_never_changes_the_choice(graph):
    """Unpinned, the recount row is priced exactly only when its O(E)
    floor could win; otherwise it stays at that floor, marked pruned.  On
    every batch the choice must equal the exact one (the cheaper of the
    two pinned rows), and a pinned recount still prices every wedge."""
    cal = CalibrationTable()
    pruned = exact = 0
    for g, batches in (
        (power_law_bipartite(30_000, 40_000, 120_000, seed=5), 8),
        (graph, 4),
    ):
        wedges = priority_wedge_work(g)
        for insert, delete in _skewed_script(g, batches):
            batch = (insert, delete)
            cands = engine.candidate_plans(
                g, "stream_apply", batch=batch, calibration=cal
            )
            (inc,) = engine.candidate_plans(
                g, "stream_apply", strategy="incremental", batch=batch,
                calibration=cal,
            )
            (rec,) = engine.candidate_plans(
                g, "stream_apply", strategy="recount", batch=batch,
                calibration=cal,
            )
            assert rec.modeled_ops == wedges
            (row,) = [c for c in cands if c.strategy == "recount"]
            if "pruned" in row.reason:
                pruned += 1
                assert inc.est_seconds < row.est_seconds <= rec.est_seconds
                assert row.modeled_ops == g.n_edges
            else:
                exact += 1
                assert row == rec
            want = min((inc, rec), key=lambda c: c.est_seconds).strategy
            chosen = engine.plan(g, "stream_apply", batch=batch, calibration=cal)
            assert chosen.strategy == cands[0].strategy == want
    assert pruned and exact


def test_a_fresh_calibration_keeps_the_skewed_script_incremental(tmp_path):
    """The calibrated stream pair must rank like the measurement: on this
    shape incremental batches run ~2-3x faster than a recount."""
    table = engine.calibrate(persist=False, repeats=1)
    graph = power_law_bipartite(30_000, 40_000, 120_000, seed=5)
    for insert, delete in _skewed_script(graph, 8):
        chosen = engine.plan(
            graph, "stream_apply", batch=(insert, delete), calibration=table
        )
        assert chosen.strategy == "incremental"


def test_strategy_pin_filters_candidates(graph):
    batch = (_batch(graph, 32), [])
    for strategy in STREAM_STRATEGIES:
        cands = engine.candidate_plans(
            graph, "stream_apply", strategy=strategy, batch=batch
        )
        assert [c.strategy for c in cands] == [strategy]


def test_invalid_stream_strategy_raises(graph):
    with pytest.raises(ValueError, match="strategy"):
        engine.plan(graph, "stream_apply", strategy="blocked")


@pytest.mark.parametrize("strategy", [None, "incremental", "recount"])
@pytest.mark.parametrize(
    ("batch", "match"),
    [
        (([(0, 99)], []), r"right vertex 99 out of range \[0, 3\) in row 0"),
        (([], [(1, 1), (-1, 0)]), r"left vertex -1 out of range \[0, 3\) in row 1"),
        (([(0.5, 1)], []), r"must be integers.*row 0"),
    ],
    ids=["out-of-range", "negative", "fractional"],
)
def test_bad_batch_ids_rejected_by_plan_and_apply(batch, match, strategy):
    """The planner checks a batch exactly as ``apply`` does: no numpy
    IndexError from the work model, no wrapped negative id, no truncated
    fraction priced as another edge — under every strategy pin."""
    g = BipartiteGraph.complete(3, 3)
    with pytest.raises(ValueError, match=match):
        engine.plan(g, "stream_apply", strategy=strategy, batch=batch)
    counter = StreamingButterflyCounter(g)
    with pytest.raises(ValueError, match=match):
        counter.apply(
            insert=batch[0], delete=batch[1], strategy=strategy or "incremental"
        )
    assert (counter.n_edges, counter.count) == (g.n_edges, count_butterflies(g))


def test_small_batch_prefers_incremental(graph):
    p = engine.plan(graph, "stream_apply", batch=(_batch(graph, 8), []))
    assert p.strategy == "incremental"


def test_touched_wedge_work_drives_the_model(graph):
    rows = np.asarray([0, 1], dtype=np.int64)
    cols = np.asarray([0, 1], dtype=np.int64)
    small = touched_wedge_work(graph, rows, cols)
    hub = int(np.argmax(np.diff(graph.csr.indptr)))
    big = touched_wedge_work(
        graph,
        np.asarray([hub] * 2, dtype=np.int64),
        cols,
    )
    assert 0 <= small <= big


def test_execute_returns_stats_with_counter(graph):
    batch = _batch(graph, 16)
    p = engine.plan(graph, "stream_apply", batch=(batch, []))
    stats = engine.execute(p, graph, insert=batch)
    counter = stats["counter"]
    assert isinstance(counter, StreamingButterflyCounter)
    assert stats["inserted"] + stats["skipped_insert"] == len(set(batch))
    # the returned counter reflects the applied batch
    probe = StreamingButterflyCounter(graph)
    probe.apply(insert=batch)
    assert counter.count == probe.count


def test_execute_reuses_passed_counter(graph):
    counter = StreamingButterflyCounter(graph)
    batch = _batch(graph, 16, seed=10)
    p = engine.plan(graph, "stream_apply", batch=(batch, []))
    stats = engine.execute(p, graph, counter=counter, insert=batch)
    assert stats["counter"] is counter
    assert counter.n_edges >= graph.n_edges


def test_explain_renders_stream_plans(graph):
    p = engine.plan(graph, "stream_apply", batch=(_batch(graph, 32), []))
    text = engine.explain(p, graph)
    assert "stream_apply" in text
    assert "incremental" in text and "recount" in text


def test_plan_without_batch_still_works(graph):
    # no pending batch → the planner scores a nominal batch of zero edges
    p = engine.plan(graph, "stream_apply")
    assert p.workload == "stream_apply"
    assert p.strategy in STREAM_STRATEGIES
