"""Ablation D — the family against the external baselines.

Positions the kernel the program runs against the algorithms the paper
cites: ``family(auto)`` is the vertex-priority kernel (ref [15]) that the
planner's auto rule picks, against degree-ordered side counting (refs
[3]/[12] — also the family's named future-work optimisation), the scipy
sparse-product route and Wang et al.'s space-efficient counter.  Every
cell is exact.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_cell
from repro.baselines import (
    count_butterflies_degree_ordered,
    count_butterflies_scipy,
    count_butterflies_wang_space_efficient,
)
from repro.bench import Sweep, TimedResult
from repro.core import count_butterflies_priority
from repro.graphs import load_dataset

SWEEP = Sweep(title="ablD: family vs baselines on occupations stand-in, seconds")

EXACT_COUNTERS = {
    "family(auto)": count_butterflies_priority,
    "degree-ordered": count_butterflies_degree_ordered,
    "scipy-spgemm": count_butterflies_scipy,
    "wang2014-space": count_butterflies_wang_space_efficient,
}


@pytest.mark.parametrize("counter", sorted(EXACT_COUNTERS))
def test_exact_baseline_cell(benchmark, counter):
    g = load_dataset("occupations")
    value = run_cell(
        benchmark,
        lambda: EXACT_COUNTERS[counter](g),
        experiment="ablD",
        counter=counter,
    )
    stats = benchmark.stats.stats if benchmark.stats else None
    SWEEP.record("occupations", counter, TimedResult(
        label=counter, seconds=stats.min if stats else 0.0, value=value
    ))


def test_baselines_agree(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(SWEEP.cells) == len(EXACT_COUNTERS), "cell tests must run first"
    print("\n" + SWEEP.render())
    assert SWEEP.values_agree()
