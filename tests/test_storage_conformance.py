"""Differential conformance matrix over the storage layouts.

Every layout (``raw`` / ``mmap``) must be observationally equivalent:
identical global counts and identical per-vertex counts in user id
order.  The matrix crosses

- every pinned count member (:func:`repro.engine.count_members`) with
  every layout, keeping the pairs the planner accepts
  (``mmap`` spills its column files under the test's ``tmp_path``;
  pooled and ``priority`` members read ``raw`` only),
- structurally distinct graph shapes including the degenerate ones.

This file is the ``storage-conformance`` CI job's entry point; keep it
self-contained (no shared executors left warm, no network, no tempdir
residue).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import engine
from repro.core import count_butterflies
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
N_WORKERS = 2


@pytest.fixture(scope="module", autouse=True)
def _retire_shared_executors():
    """The pooled members warm the default executor; retire it (and its
    published /dev/shm segment) with the module."""
    yield
    from repro.parallel import shutdown_default_executors

    shutdown_default_executors()


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


def _accepted(member: dict, layout: str) -> bool:
    """Whether the planner takes ``member`` with ``layout`` pinned."""
    try:
        engine.plan(GRAPHS["complete"], "count", layout=layout,
                    calibration=DEFAULTS, **member)
    except ValueError:
        return False
    return True


#: (member, layout) pairs the planner accepts
CELLS = [
    (member, layout)
    for member in engine.count_members()
    for layout in STORAGE_LAYOUTS
    if _accepted(member, layout)
]


def _store(g, layout, tmp_path):
    """``make_storage`` with mmap's column files under ``tmp_path``."""
    if layout == "mmap":
        return make_storage(g, layout, directory=str(tmp_path / "mmap"))
    return make_storage(g, layout)


def _count(g, member, layout, tmp_path, **pins) -> int:
    """``member`` planned on ``g`` with ``layout`` pinned, run on the
    layout's store (a shared member on an ``N_WORKERS`` pool)."""
    p = engine.plan(
        g, "count", layout=layout, calibration=DEFAULTS,
        workers=N_WORKERS if member["executor"] == "shared" else None,
        **member, **pins,
    )
    assert (p.strategy, p.executor, p.layout) == (
        member["strategy"], member["executor"], layout,
    )
    return engine.execute(p, _store(g, layout, tmp_path))


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("invariant,layout", [
    (member["invariant"], layout) for member, layout in CELLS
    if member["strategy"] == "blocked"
])
def test_blocked_count_cell(graph_name, invariant, layout, tmp_path):
    """The panel kernel at a width that splits every graph into panels."""
    g = GRAPHS[graph_name]
    member = {"invariant": invariant, "strategy": "blocked", "executor": "serial"}
    got = _count(g, member, layout, tmp_path, block_size=7)
    assert got == count_butterflies(g)


def _label(member: dict) -> str:
    number = member["invariant"]
    name = f"{member['strategy']}-{member['executor']}"
    return name if number is None else f"inv{number}-{name}"


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("member,layout", [
    pytest.param(member, layout, id=f"{_label(member)}-{layout}")
    for member, layout in CELLS if member["strategy"] != "blocked"
])
def test_member_count_cell(graph_name, member, layout, tmp_path):
    g = GRAPHS[graph_name]
    assert _count(g, member, layout, tmp_path) == count_butterflies(g)


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
    """Per-vertex results come back in *user* id order on a view of
    every layout (the plan takes no layout pin: it runs the priority
    kernel on whatever view it is handed)."""
    g = GRAPHS[graph_name]
    truth = vertex_butterfly_counts(g, side)
    p = engine.plan(g, "vertex-counts", side=side, calibration=DEFAULTS)
    view = _store(g, layout, tmp_path)
    np.testing.assert_array_equal(engine.execute(p, view), truth)
