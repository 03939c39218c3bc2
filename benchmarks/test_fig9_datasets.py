"""Experiment fig9 — the dataset statistics table (paper Fig. 9).

Regenerates the |V1| / |V2| / |E| / Ξ_G table for the five synthetic
stand-ins and cross-checks the butterfly column across two family members
and the scipy oracle (the paper used KONECT's published square counts as
its ground truth; our ground truth is oracle agreement).

Run with ``-s`` to see the rendered table next to the paper's values.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_cell
from repro.baselines import count_butterflies_scipy
from repro.bench import format_table
from repro.core import count_butterflies_unblocked
from repro.graphs import dataset_names, graph_stats, load_dataset, paper_stats

_ROWS: dict[str, dict] = {}


@pytest.mark.parametrize("name", dataset_names())
def test_fig9_row(benchmark, name):
    """Count Ξ_G for one dataset (timed) and assert oracle agreement."""
    g = load_dataset(name)

    def count():
        return count_butterflies_unblocked(g, 2)

    via_inv2 = run_cell(benchmark, count, dataset=name, experiment="fig9")
    via_inv6 = count_butterflies_unblocked(g, 6)
    via_scipy = count_butterflies_scipy(g)
    assert via_inv2 == via_inv6 == via_scipy
    stats = graph_stats(g)
    _ROWS[name] = {
        "stats": stats,
        "butterflies": via_inv2,
        "paper": paper_stats(name),
    }


def test_fig9_table(benchmark):
    """Assemble and print the full Fig. 9 table (depends on the rows above)."""
    assert set(_ROWS) == set(dataset_names()), "row tests must run first"
    header = [
        "Dataset", "|V1|", "|V2|", "|E|", "butterflies",
        "paper |V1|", "paper |V2|", "paper |E|", "paper bf",
    ]
    rows = []
    for name in dataset_names():
        r = _ROWS[name]
        s, p = r["stats"], r["paper"]
        rows.append(
            [name, s.n_left, s.n_right, s.n_edges, r["butterflies"],
             p["n_left"], p["n_right"], p["n_edges"], p["butterflies"]]
        )
    table = format_table(header, rows, title="fig9: dataset statistics (stand-ins at 1/10 scale)")
    print("\n" + table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    # shape assertions mirroring the paper's Fig. 9:
    bf = {name: _ROWS[name]["butterflies"] for name in _ROWS}
    # (1) same butterfly-density ordering as the paper
    paper_bf = {name: _ROWS[name]["paper"]["butterflies"] for name in _ROWS}
    our_order = sorted(bf, key=bf.get)
    paper_order = sorted(paper_bf, key=paper_bf.get)
    assert our_order == paper_order
    # (2) same smaller-side per dataset (the Section V selection input)
    for name in _ROWS:
        s, p = _ROWS[name]["stats"], _ROWS[name]["paper"]
        assert (s.n_left < s.n_right) == (p["n_left"] < p["n_right"]), name
