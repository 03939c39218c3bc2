"""Experiment fig11 — parallel (6-worker) timings, 8 invariants × 5 datasets.

The paper's Fig. 11 reruns every invariant with 6 threads.  Here each cell
runs :func:`count_butterflies_parallel` with 6 workers on the warm
shared-memory process pool (``executor="shared"``) under the same
``spmv`` cost model as the sequential Fig. 10 sweep, so the two tables
are directly comparable.

Reproduced shapes:

1. Exactness: every parallel cell equals the sequential count.
2. The smaller-side rule persists under parallelism (it does in the
   paper's Fig. 11 as well).
3. For the heaviest dataset/family combinations the 6-worker run beats the
   sequential one (the paper's small datasets also speed up least —
   pool overhead dominates tiny kernels).
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import run_cell
from repro.bench import Sweep, TimedResult
from repro.core import count_butterflies_parallel, count_butterflies_unblocked
from repro.graphs import dataset_names, load_dataset

N_WORKERS = 6

SWEEP = Sweep(title=f"fig11: parallel times ({N_WORKERS} shared workers, spmv), seconds")


@pytest.mark.parametrize("invariant", range(1, 9))
@pytest.mark.parametrize("name", dataset_names())
def test_fig11_cell(benchmark, name, invariant):
    g = load_dataset(name)

    def count():
        return count_butterflies_parallel(
            g,
            n_workers=N_WORKERS,
            executor="shared",
            invariant=invariant,
            strategy="spmv",
        )

    value = run_cell(
        benchmark, count, dataset=name, invariant=invariant, experiment="fig11"
    )
    assert value == count_butterflies_unblocked(g, invariant, strategy="spmv")
    stats = benchmark.stats.stats if benchmark.stats else None
    seconds = stats.min if stats else 0.0
    SWEEP.record(name, f"Inv. {invariant}", TimedResult(
        label=f"{name}/inv{invariant}", seconds=seconds, value=value
    ))


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup requires multiple physical cores "
    f"(this machine has {os.cpu_count()})",
)
def test_fig11_speedup_on_heavy_workload(benchmark):
    """On a multi-core machine the 6-worker run must beat sequential on a
    workload heavy enough to amortise pool start-up (the paper's Fig. 11
    speedups, reproduced at scale).  Skipped on single-core machines,
    where the best possible 'speedup' is 1× minus overhead."""
    from repro.graphs import power_law_bipartite

    g = power_law_bipartite(15000, 20000, 400000, gamma_left=2.1,
                            gamma_right=2.1, seed=56)
    seq = time.perf_counter()
    expected = count_butterflies_unblocked(g, 6)
    seq = time.perf_counter() - seq
    value = run_cell(
        benchmark,
        lambda: count_butterflies_parallel(
            g, n_workers=N_WORKERS, executor="shared", invariant=6
        ),
        experiment="fig11-speedup",
    )
    assert value == expected
    par = benchmark.stats.stats.min
    assert par < seq, (par, seq)


def test_fig11_table_and_shapes(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    expected_cells = {(d, f"Inv. {i}") for d in dataset_names() for i in range(1, 9)}
    assert set(SWEEP.cells) == expected_cells, "cell tests must run first"
    print("\n" + SWEEP.render())
    assert SWEEP.values_agree()
    # the smaller-side rule persists in parallel — asserted only where the
    # side ratio is decisive (>= 2×): on near-balanced or tiny datasets the
    # per-call dispatch cost is larger than the family gap, the same
    # reason the paper's Fig. 11 speedups are weakest on its small inputs
    for name in dataset_names():
        g = load_dataset(name)
        ratio = max(g.n_left, g.n_right) / min(g.n_left, g.n_right)
        if ratio < 2.0:
            continue
        cols = sum(SWEEP.get(name, f"Inv. {i}").seconds for i in (1, 2, 3, 4)) / 4
        rows = sum(SWEEP.get(name, f"Inv. {i}").seconds for i in (5, 6, 7, 8)) / 4
        if g.n_right < g.n_left:
            assert cols < rows, (name, cols, rows)
        else:
            assert rows < cols, (name, cols, rows)
