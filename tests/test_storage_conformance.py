"""Differential conformance matrix over the storage layouts.

Every layout (``raw`` / ``mmap``) must be observationally equivalent:
identical global counts for every invariant and identical per-vertex
counts in user id order.  The matrix crosses

- both layouts (``mmap`` spills its column files under the test's
  ``tmp_path``),
- all 8 loop invariants through the blocked kernel,
- structurally distinct graph shapes including the degenerate ones.

This file is the ``storage-conformance`` CI job's entry point; keep it
self-contained (no shared executors, no network, no tempdir residue).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import engine
from repro.core import count_butterflies
from repro.core.blocked import count_butterflies_blocked
from repro.core.local_counts import vertex_butterfly_counts
from repro.engine.calibration import CalibrationTable
from repro.graphs import (
    BipartiteGraph,
    erdos_renyi_bipartite,
    planted_bicliques,
    power_law_bipartite,
)
from repro.storage import make_storage

DEFAULTS = CalibrationTable()
STORAGE_LAYOUTS = ("raw", "mmap")
INVARIANTS = list(range(1, 9))


def _graphs() -> dict[str, BipartiteGraph]:
    return {
        "empty": BipartiteGraph.empty(5, 7),
        "star": BipartiteGraph([(0, j) for j in range(9)], n_left=1, n_right=9),
        "complete": BipartiteGraph.complete(4, 5),
        "er": erdos_renyi_bipartite(22, 28, 0.15, seed=201),
        "powerlaw": power_law_bipartite(35, 45, 220, seed=202),
        "planted": planted_bicliques(
            30, 30, n_cliques=3, clique_left=4, clique_right=4,
            background_edges=40, seed=203,
        ),
    }


GRAPHS = _graphs()


def _store(g, layout, tmp_path):
    """``make_storage`` with mmap's column files under ``tmp_path``."""
    if layout == "mmap":
        return make_storage(g, layout, directory=str(tmp_path / "mmap"))
    return make_storage(g, layout)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("layout", STORAGE_LAYOUTS)
@pytest.mark.parametrize("invariant", INVARIANTS)
def test_blocked_count_cell(graph_name, layout, invariant, tmp_path):
    g = GRAPHS[graph_name]
    truth = count_butterflies(g)
    store = _store(g, layout, tmp_path)
    assert count_butterflies_blocked(store, invariant, block_size=7) == truth


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("layout", STORAGE_LAYOUTS)
def test_plan_execute_cell(graph_name, layout, tmp_path):
    g = GRAPHS[graph_name]
    p = engine.plan(g, "count", layout=layout, calibration=DEFAULTS)
    assert engine.execute(p, _store(g, layout, tmp_path)) == count_butterflies(g)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("layout", STORAGE_LAYOUTS)
@pytest.mark.parametrize("side", ("left", "right"))
def test_vertex_counts_cell(graph_name, layout, side, tmp_path):
    """Per-vertex results come back in *user* id order for every layout."""
    g = GRAPHS[graph_name]
    truth = vertex_butterfly_counts(g, side)
    p = engine.plan(
        g, "vertex-counts", side=side, layout=layout, calibration=DEFAULTS
    )
    view = _store(g, layout, tmp_path)
    np.testing.assert_array_equal(engine.execute(p, view), truth)
