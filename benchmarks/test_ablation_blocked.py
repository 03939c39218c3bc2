"""Ablation C — blocked vs unblocked, and the strategy gap.

Two design questions DESIGN.md calls out:

1. **Blocking**: the paper derives unblocked algorithms; the blocked
   (panel) variants amortise per-iteration interpreter overhead over b
   pivots.  Sweep b ∈ {1, 16, 64, 256, 1024} on the heaviest stand-in:
   expected monotone improvement until the panel working set dominates.
2. **Strategy**: the wedge-optimal ``scratch`` update vs the
   paper-literal ``spmv`` scan — quantifying what "carefully implementing
   this update" (the remark after eq. 18) is worth end-to-end.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_cell
from repro.bench import Sweep, TimedResult
from repro.core import (
    count_butterflies_blocked,
    count_butterflies_unblocked,
)
from repro.graphs import load_dataset

SWEEP = Sweep(title="ablC: blocked vs unblocked on github stand-in, seconds")

BLOCKS = [1, 16, 64, 256, 1024]


@pytest.mark.parametrize("block", BLOCKS)
def test_blocked_cell(benchmark, block):
    g = load_dataset("github")
    value = run_cell(
        benchmark,
        lambda: count_butterflies_blocked(g, 6, block_size=block),
        experiment="ablC",
        block=block,
    )
    stats = benchmark.stats.stats if benchmark.stats else None
    SWEEP.record("github", f"b={block}", TimedResult(
        label=f"b={block}", seconds=stats.min if stats else 0.0, value=value
    ))


@pytest.mark.parametrize("strategy", ["scratch", "spmv"])
def test_strategy_cell(benchmark, strategy):
    g = load_dataset("github")
    value = run_cell(
        benchmark,
        lambda: count_butterflies_unblocked(g, 6, strategy=strategy),
        experiment="ablC",
        strategy=strategy,
    )
    stats = benchmark.stats.stats if benchmark.stats else None
    SWEEP.record("github", f"unblocked/{strategy}", TimedResult(
        label=strategy, seconds=stats.min if stats else 0.0, value=value
    ))


def test_blocked_shape(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(SWEEP.cells) == len(BLOCKS) + 2, "cell tests must run first"
    print("\n" + SWEEP.render())
    assert SWEEP.values_agree()
    # blocking with a real panel beats pivot-at-a-time
    b1 = SWEEP.get("github", "b=1").seconds
    b64 = SWEEP.get("github", "b=64").seconds
    assert b64 < b1
    # the wedge-optimal update beats the literal reference-partition scan
    scratch = SWEEP.get("github", "unblocked/scratch").seconds
    spmv = SWEEP.get("github", "unblocked/spmv").seconds
    assert scratch < spmv
