"""Experiment: the shared-memory warm pool across peeling rounds.

The tip decomposition's wedge rounds (the path of graphs whose pair table
would pass its byte cap) through one executor must keep the pool warm:
every pooled round reuses the one pool the first one started.  The
per-call dispatch and publish costs are measured by the end-to-end
benchmark (``benchmarks/e2e``, ``parallel.*`` layers).
"""

from __future__ import annotations

import os

import pytest

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm") and os.name != "nt",
    reason="POSIX shared memory unavailable",
)


def test_warm_pool_amortises_peeling_rounds(benchmark, monkeypatch):
    """Bucket tip rounds through one executor start one pool; the
    pair-table cap at 0 forces the wedge rounds and the round gate at 0
    sends every multi-shard round to the pool."""
    from repro.core import tip_numbers_bucket_parallel
    from repro.core.peeling import buckets
    from repro.graphs import power_law_bipartite
    from repro.parallel import ButterflyExecutor

    monkeypatch.setattr(buckets, "PAIR_TABLE_MAX_BYTES", 0)
    monkeypatch.setattr(buckets, "DEFAULT_WEDGE_SHARD_BUDGET", 0)
    g = power_law_bipartite(2_000, 3_000, 60_000, seed=3)

    def peel():
        with ButterflyExecutor(n_workers=2) as ex:
            tips = tip_numbers_bucket_parallel(g, "left", executor=ex)
            return int(tips.max()), ex.pool_starts, ex.dispatch_count

    top, pool_starts, dispatches = benchmark.pedantic(
        peel, rounds=1, iterations=1
    )
    benchmark.extra_info.update(max_tip=top, dispatches=dispatches)
    assert dispatches >= 2  # several rounds went to the pool ...
    assert pool_starts == 1  # ... on a single warm pool
