"""Ablation F — the analytic work model and the (2,2)-core reduction.

Two artifacts:

1. **Work model vs wall clock**: print each invariant's exact element-op
   count next to its measured time on one dataset; assert the model picks
   the same column-vs-row winner as the clock (Fig. 10's shape derived
   analytically, see `repro.core.workinfo`).
2. **(2,2)-core prefilter**: measure counting with and without the
   butterfly-preserving degree-2 core reduction — the standard preprocessing
   the butterfly literature applies before any of these algorithms.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_cell
from repro.bench import Sweep, TimedResult
from repro.core import count_butterflies, count_butterflies_unblocked
from repro.core.workinfo import work_profile
from repro.graphs import load_dataset, two_two_core

SWEEP = Sweep(title="ablF: measured seconds vs analytic ops (occupations)")
_MODEL: dict[int, int] = {}


@pytest.mark.parametrize("invariant", range(1, 9))
def test_workmodel_cell(benchmark, invariant):
    g = load_dataset("occupations")
    value = run_cell(
        benchmark,
        lambda: count_butterflies_unblocked(g, invariant, strategy="spmv"),
        experiment="ablF",
        invariant=invariant,
    )
    stats = benchmark.stats.stats if benchmark.stats else None
    SWEEP.record("occupations", f"Inv. {invariant}", TimedResult(
        label=f"inv{invariant}",
        seconds=stats.min if stats else 0.0,
        value=value,
    ))
    _MODEL[invariant] = work_profile(g, invariant, "spmv").total_ops


def test_workmodel_correlates(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(_MODEL) == 8, "cell tests must run first"
    print("\n" + SWEEP.render())
    print("model (element ops):", {k: _MODEL[k] for k in sorted(_MODEL)})
    # the model's family winner matches the measured family winner
    model_cols = sum(_MODEL[i] for i in (1, 2, 3, 4))
    model_rows = sum(_MODEL[i] for i in (5, 6, 7, 8))
    time_cols = sum(SWEEP.get("occupations", f"Inv. {i}").seconds for i in (1, 2, 3, 4))
    time_rows = sum(SWEEP.get("occupations", f"Inv. {i}").seconds for i in (5, 6, 7, 8))
    assert (model_cols < model_rows) == (time_cols < time_rows)


@pytest.mark.parametrize("variant", ["raw", "reduced"])
def test_two_two_core_prefilter(benchmark, variant):
    g = load_dataset("occupations")

    if variant == "raw":
        fn = lambda: count_butterflies(g)  # noqa: E731
    else:
        def fn():
            red = two_two_core(g)
            return count_butterflies(red.graph)

    value = run_cell(benchmark, fn, experiment="ablF", variant=variant)
    assert value == count_butterflies(g)


def test_reduction_shrinkage(benchmark):
    """Report how much the (2,2)-core strips from each stand-in."""
    from repro.graphs import dataset_names

    def summarize():
        rows = []
        for name in dataset_names():
            g = load_dataset(name)
            red = two_two_core(g).graph
            rows.append((name, g.n_edges, red.n_edges,
                         1 - red.n_edges / max(g.n_edges, 1)))
        return rows

    rows = benchmark.pedantic(summarize, rounds=1, iterations=1)
    print("\n(2,2)-core shrinkage:")
    for name, before, after, frac in rows:
        print(f"  {name:14s} {before:6d} -> {after:6d} edges "
              f"({frac:.0%} removed)")
    # power-law stand-ins always shed a meaningful tail
    assert all(frac > 0.05 for _, _, _, frac in rows)
