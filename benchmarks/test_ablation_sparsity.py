"""Ablation B — edge sparsity at fixed vertex counts.

Section V compares GitHub against Producers (similar vertex counts, ~2×
the edges) and observes up to ~2× slowdown for the denser graph.  This
sweep makes that controlled: same |V1|, |V2|, uniform random edges doubling
each step, timing the auto-selected member under both strategies.

Expected shapes: spmv time grows ~linearly in |E| (the per-pivot scan is
the whole reference partition), and scratch time grows super-linearly
(wedge counts grow faster than edges in G(n, m)).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_cell
from repro.bench import Sweep, TimedResult
from repro.bench.registry import sparsity_workloads
from repro.core import count_butterflies_unblocked
from repro.engine import select_count_invariant

WORKLOADS = None
SWEEP = Sweep(title="ablB: edge-density sweep, seconds")

LEVELS = ["|E|=5000", "|E|=10000", "|E|=20000", "|E|=40000"]


def _workloads():
    global WORKLOADS
    if WORKLOADS is None:
        WORKLOADS = sparsity_workloads(n_left=4000, n_right=8000)
    return WORKLOADS


@pytest.mark.parametrize("strategy", ["scratch", "spmv"])
@pytest.mark.parametrize("level", LEVELS)
def test_sparsity_cell(benchmark, level, strategy):
    g = _workloads()[level]
    invariant = select_count_invariant(g)  # auto-selected member, pinned
    value = run_cell(
        benchmark,
        lambda: count_butterflies_unblocked(g, invariant, strategy=strategy),
        experiment="ablB",
        level=level,
        strategy=strategy,
    )
    stats = benchmark.stats.stats if benchmark.stats else None
    SWEEP.record(level, strategy, TimedResult(
        label=f"{level}/{strategy}",
        seconds=stats.min if stats else 0.0,
        value=value,
    ))


def test_sparsity_shape(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(SWEEP.cells) == len(LEVELS) * 2, "cell tests must run first"
    print("\n" + SWEEP.render())
    # denser is slower for both strategies — the paper's GitHub-vs-Producers
    # observation as a monotone curve
    for strategy in ("scratch", "spmv"):
        times = [SWEEP.get(level, strategy).seconds for level in LEVELS]
        assert times[-1] > times[0], (strategy, times)
