"""Experiment: shared-memory warm-pool dispatch overhead.

On a ≥10⁵-edge generated graph the warm shared-memory pool must stay
warm: repeated calls start the pool once and publish the graph once.
The measurement itself lives in :mod:`repro.bench.parallel_bench` (also
behind ``make bench-quick``); this experiment runs it, asserts the
telemetry, and persists the payload to ``BENCH_parallel.json`` at the
repository root.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.bench.parallel_bench import run_benchmark

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm") and os.name != "nt",
    reason="POSIX shared memory unavailable",
)

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_shared_dispatch_overhead(benchmark):
    payload = benchmark.pedantic(
        lambda: run_benchmark(n_workers=2, repeats=5),
        rounds=1,
        iterations=1,
    )
    d = payload["dispatch_overhead"]
    assert d["graph"]["n_edges"] >= 100_000
    benchmark.extra_info.update(
        overhead_shared_ms=d["overhead_shared_seconds"] * 1e3,
    )

    out = _REPO_ROOT / "BENCH_parallel.json"
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    # the warm pool really was warm: one pool start, one publication
    telemetry = d["executor_telemetry"]
    assert telemetry["pool_starts"] == 1
    assert telemetry["publish_count"] == 1


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
