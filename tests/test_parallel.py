"""Tests for the parallel counting executors and the load balancer."""

import numpy as np
import pytest

from repro.core import (
    balanced_ranges,
    count_butterflies,
    count_butterflies_parallel,
    pivot_work_estimate,
)
from repro.core.family import Side
from tests.conftest import tiny_named_graphs


@pytest.fixture(scope="module", autouse=True)
def _retire_shared_executors():
    """Leave no warm default executor (and no published /dev/shm segment)
    behind for later modules."""
    yield
    from repro.parallel import shutdown_default_executors

    shutdown_default_executors()


# ----------------------------------------------------------- range splitting
def test_balanced_ranges_cover_everything():
    work = np.array([5, 1, 1, 1, 5, 1, 1, 1, 5, 1])
    ranges = balanced_ranges(work, 3)
    covered = [i for lo, hi in ranges for i in range(lo, hi)]
    assert covered == list(range(10))


def test_balanced_ranges_are_disjoint_and_ordered():
    work = np.arange(20)
    ranges = balanced_ranges(work, 4)
    for (a_lo, a_hi), (b_lo, b_hi) in zip(ranges, ranges[1:]):
        assert a_hi == b_lo


def test_balanced_ranges_balance_quality():
    """No chunk should carry more than ~2 chunks' fair share + one item."""
    rng = np.random.default_rng(0)
    work = rng.integers(1, 100, size=200)
    ranges = balanced_ranges(work, 8)
    sums = [work[lo:hi].sum() for lo, hi in ranges]
    fair = work.sum() / 8
    assert max(sums) <= 2 * fair + work.max()


def test_balanced_ranges_zero_work():
    ranges = balanced_ranges(np.zeros(10), 3)
    covered = [i for lo, hi in ranges for i in range(lo, hi)]
    assert covered == list(range(10))


def test_balanced_ranges_more_chunks_than_items():
    ranges = balanced_ranges(np.array([1, 1]), 10)
    assert len(ranges) <= 2
    covered = [i for lo, hi in ranges for i in range(lo, hi)]
    assert covered == [0, 1]


def test_balanced_ranges_empty():
    assert balanced_ranges(np.array([]), 4) == []


def test_pivot_work_estimate_is_exact_wedge_count(medium_graph):
    pm, co = medium_graph.csc, medium_graph.csr
    work = pivot_work_estimate(pm, co)
    # total work = total wedge expansions = sum over entries of row degrees
    expected_total = int(np.sum(np.diff(co.indptr)[pm.indices]))
    assert int(work.sum()) == expected_total
    # spot check one pivot by hand
    pivot = int(np.argmax(np.diff(pm.indptr)))
    nbrs = pm.slice(pivot)
    assert work[pivot] == np.diff(co.indptr)[nbrs].sum()


# ----------------------------------------------------------------- executors
@pytest.mark.parametrize("executor", ["serial", "shared"])
def test_executors_match_sequential(executor, corpus):
    for name, g in corpus:
        assert count_butterflies_parallel(
            g, n_workers=3, executor=executor
        ) == count_butterflies(g), (name, executor)


def test_process_executor_matches(medium_graph):
    expected = count_butterflies(medium_graph)
    got = count_butterflies_parallel(
        medium_graph, n_workers=2, executor="shared"
    )
    assert got == expected


def test_side_override():
    g = tiny_named_graphs()["k23"]
    for side in ("columns", "rows", Side.COLUMNS, Side.ROWS):
        assert count_butterflies_parallel(g, n_workers=2, side=side,
                                          executor="serial") == 3


def test_single_worker_shortcuts_to_serial():
    g = tiny_named_graphs()["k33"]
    assert count_butterflies_parallel(g, n_workers=1, executor="shared") == 9


def test_empty_graph_parallel():
    from repro.graphs import BipartiteGraph

    assert count_butterflies_parallel(
        BipartiteGraph.empty(4, 4), executor="serial"
    ) == 0


def test_invalid_executor():
    g = tiny_named_graphs()["k33"]
    with pytest.raises(ValueError, match="executor"):
        count_butterflies_parallel(g, executor="gpu")


def test_invalid_worker_count():
    g = tiny_named_graphs()["k33"]
    with pytest.raises(ValueError, match="n_workers"):
        count_butterflies_parallel(g, n_workers=0)


@pytest.mark.parametrize("invariant", range(1, 9))
@pytest.mark.parametrize("strategy", ["scratch", "spmv"])
def test_parallel_per_invariant_grid(invariant, strategy, medium_graph):
    """Each Fig. 11 cell: any invariant × strategy parallelises exactly."""
    expected = count_butterflies(medium_graph)
    got = count_butterflies_parallel(
        medium_graph,
        n_workers=2,
        executor="serial",
        invariant=invariant,
        strategy=strategy,
    )
    assert got == expected


def test_parallel_invariant_through_process_pool(medium_graph):
    expected = count_butterflies(medium_graph)
    assert count_butterflies_parallel(
        medium_graph, n_workers=2, executor="shared", invariant=5,
        strategy="spmv",
    ) == expected


def test_parallel_invalid_strategy():
    g = tiny_named_graphs()["k33"]
    with pytest.raises(ValueError, match="strategy"):
        count_butterflies_parallel(g, strategy="magic")


@pytest.mark.parametrize("removed", ["process", "thread"])
def test_removed_executors_rejected(removed, medium_graph):
    """Only ``serial`` and ``shared`` exist: the old pool names are typed
    errors at every entry point that takes an executor."""
    from repro import engine
    from repro.engine import Plan

    with pytest.raises(ValueError, match="executor"):
        count_butterflies_parallel(medium_graph, executor=removed)
    with pytest.raises(ValueError, match="executor"):
        engine.plan(medium_graph, "count", executor=removed)
    with pytest.raises(ValueError, match="executor"):
        Plan(executor=removed)


# ------------------------------------------------- int64-exact load balancing
def test_balanced_ranges_int64_exact_beyond_float53():
    """Integer work must not lose exactness to float64 rounding (> 2^53)."""
    big = np.int64(1) << 55
    work = np.array([big, 1, 1, big, 1, 1], dtype=np.int64)
    ranges = balanced_ranges(work, 2)
    covered = [i for lo, hi in ranges for i in range(lo, hi)]
    assert covered == list(range(6))
    # the two huge pivots must land in different chunks: a float64 cumsum
    # would swallow the +1 items and could misplace the cut
    owners = {}
    for ci, (lo, hi) in enumerate(ranges):
        for i in range(lo, hi):
            owners[i] = ci
    assert owners[0] != owners[3]


def test_balanced_ranges_single_pivot():
    assert balanced_ranges(np.array([42], dtype=np.int64), 5) == [(0, 1)]


def test_balanced_ranges_all_zero_int():
    ranges = balanced_ranges(np.zeros(7, dtype=np.int64), 3)
    covered = [i for lo, hi in ranges for i in range(lo, hi)]
    assert covered == list(range(7))


def test_balanced_ranges_float_work_still_supported():
    work = np.array([0.5, 0.5, 1.5, 0.5])
    ranges = balanced_ranges(work, 2)
    covered = [i for lo, hi in ranges for i in range(lo, hi)]
    assert covered == list(range(4))


def test_balanced_ranges_hub_does_not_strand_the_tail():
    """Regression: equal-spaced global targets collapse behind a hub.

    With one pivot carrying nearly all the work, every global target
    ``k·total/n`` lands inside the hub's cumulative mass, so the old cut
    rule produced [hub] + [everything else] no matter how many chunks
    were requested.  The greedy remaining-work rule must keep splitting
    the tail: 4 chunks over [100, 1, 1, 1] are 4 singletons, int64-exact.
    """
    work = np.array([100, 1, 1, 1], dtype=np.int64)
    ranges = balanced_ranges(work, 4)
    assert ranges == [(0, 1), (1, 2), (2, 3), (3, 4)]
    # hub in the middle: the prefix units fold into the hub's chunk and
    # the tail stragglers still get one chunk each
    work = np.array([1, 1, 100, 1, 1, 1], dtype=np.int64)
    assert balanced_ranges(work, 4) == [(0, 3), (3, 4), (4, 5), (5, 6)]


def test_balanced_ranges_hub_exact_beyond_float53():
    """The hub regression and int64 exactness together: a 2^55 hub with
    unit-work stragglers must still yield per-straggler chunks."""
    big = np.int64(1) << 55
    work = np.array([big, 1, 1, 1], dtype=np.int64)
    ranges = balanced_ranges(work, 4)
    assert ranges == [(0, 1), (1, 2), (2, 3), (3, 4)]


# ------------------------------------------------------------- wedge shards
def test_wedge_shards_tile_and_respect_budget():
    from repro.core import wedge_shards

    rng = np.random.default_rng(3)
    work = rng.integers(0, 1000, size=500).astype(np.int64)
    budget = 2000
    shards = wedge_shards(work, 8, budget=budget)
    covered = [i for lo, hi in shards for i in range(lo, hi)]
    assert covered == list(range(500))
    for lo, hi in shards:
        total = int(work[lo:hi].sum())
        # only an irreducible single pivot may exceed the budget
        assert total <= budget or hi - lo == 1


def test_wedge_shards_oversized_pivot_is_singleton():
    from repro.core import wedge_shards

    work = np.array([10, 5000, 10, 10], dtype=np.int64)
    shards = wedge_shards(work, 2, budget=100)
    assert (1, 2) in shards
    covered = [i for lo, hi in shards for i in range(lo, hi)]
    assert covered == list(range(4))


def test_wedge_shards_default_budget_matches_constant():
    from repro.core import DEFAULT_WEDGE_SHARD_BUDGET, wedge_shards

    assert DEFAULT_WEDGE_SHARD_BUDGET == 1 << 18
    # under-budget work: shard layout degenerates to balanced_ranges
    work = np.full(64, 10, dtype=np.int64)
    assert wedge_shards(work, 4) == balanced_ranges(work, 4)


def test_count_wedge_strategy_matches_family(medium_graph):
    expected = count_butterflies(medium_graph)
    for executor in ("serial", "shared"):
        for invariant in (2, 6):
            got = count_butterflies_parallel(
                medium_graph,
                n_workers=1 if executor == "serial" else 2,
                executor=executor,
                invariant=invariant,
                strategy="wedge",
            )
            assert got == expected, (executor, invariant)


# ------------------------------------------------------ spmv work model fix
def test_spmv_scan_lengths_triangular(medium_graph):
    """The spmv per-pivot cost is the reference-partition scan length."""
    from repro.core import spmv_scan_lengths
    from repro.core.family import Reference

    pm = medium_graph.csr
    nnz = pm.nnz
    prefix = spmv_scan_lengths(pm, Reference.PREFIX)
    suffix = spmv_scan_lengths(pm, Reference.SUFFIX)
    assert np.array_equal(prefix, pm.indptr[:-1])
    assert np.array_equal(suffix, nnz - pm.indptr[1:])
    # prefix + suffix covers every off-pivot entry exactly once per pivot
    deg = np.diff(pm.indptr)
    assert np.array_equal(prefix + suffix, nnz - deg)


def test_spmv_work_model_is_not_uniform(medium_graph):
    """Regression: the seed modelled spmv work as np.ones — pivot 0 and
    pivot n-1 have wildly different suffix scan lengths."""
    from repro.core.parallel import parallel_work_model
    from repro.core.family import Reference

    pm, co = medium_graph.csr, medium_graph.csc
    work = parallel_work_model(pm, co, "spmv", Reference.SUFFIX)
    assert work.dtype.kind in "iu"
    assert work[0] >= work[-1]  # suffix scans shrink toward the end
    assert len(np.unique(work)) > 1


# ----------------------------------------------- shared executor entry point
def test_shared_executor_default_matches(medium_graph):
    from repro.parallel import shutdown_default_executors

    try:
        expected = count_butterflies(medium_graph)
        assert count_butterflies_parallel(medium_graph, n_workers=2) == expected
        assert count_butterflies_parallel(
            medium_graph, n_workers=2, executor="shared", invariant=7,
            strategy="scratch",
        ) == expected
    finally:
        shutdown_default_executors()
