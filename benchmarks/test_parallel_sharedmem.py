"""Experiment: the shared-memory warm pool across Fig. 11's count sweep.

The eight-invariant parallel count (the paper's Fig. 11 grid) through one
executor must keep the pool warm and the graph published: one pool
start, one publish, and one dispatch per invariant.  The per-call
dispatch and publish costs are measured by the end-to-end benchmark
(``benchmarks/e2e``, ``parallel.*`` layers).
"""

from __future__ import annotations

import os

import pytest

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm") and os.name != "nt",
    reason="POSIX shared memory unavailable",
)


def test_warm_pool_amortises_the_invariant_sweep(benchmark):
    """Eight counts through one executor start one pool and publish the
    graph once; every invariant gives the same total."""
    from repro.core import count_butterflies
    from repro.graphs import power_law_bipartite
    from repro.parallel import ButterflyExecutor

    g = power_law_bipartite(2_000, 3_000, 60_000, seed=3)

    def sweep():
        with ButterflyExecutor(n_workers=2) as ex:
            totals = {ex.count(g, invariant=inv) for inv in range(1, 9)}
            return totals, ex.pool_starts, ex.publish_count, ex.dispatch_count

    totals, pool_starts, publishes, dispatches = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    benchmark.extra_info.update(dispatches=dispatches)
    assert totals == {count_butterflies(g)}
    assert pool_starts == 1
    assert publishes == 1
    assert dispatches == 8
