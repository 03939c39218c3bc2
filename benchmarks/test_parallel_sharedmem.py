"""Experiment: the shared-memory warm pool across peeling rounds.

Multi-round k-tip peeling through one executor must keep the pool warm:
every round reuses the one pool the first round started.  The per-call
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


def test_warm_pool_amortises_peeling_rounds(benchmark):
    """Multi-round k-tip peeling through one executor starts one pool."""
    from repro.core import k_tip
    from repro.graphs import power_law_bipartite
    from repro.parallel import ButterflyExecutor

    g = power_law_bipartite(2_000, 3_000, 60_000, seed=3)

    def peel():
        with ButterflyExecutor(n_workers=2) as ex:
            res = k_tip(g, 50, executor=ex)
            return res.rounds, ex.pool_starts, ex.dispatch_count

    rounds, pool_starts, dispatches = benchmark.pedantic(
        peel, rounds=1, iterations=1
    )
    benchmark.extra_info.update(rounds=rounds, dispatches=dispatches)
    assert rounds >= 2  # the fixpoint actually iterated
    assert pool_starts == 1  # ... on a single warm pool
