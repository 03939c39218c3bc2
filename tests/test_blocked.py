"""Tests for the blocked (panel) algorithm family."""

import pytest

from repro import obs
from repro.core import (
    butterflies_spec,
    count_butterflies_blocked,
    count_butterflies_unblocked,
)
from repro.core.blocked import panel_butterflies
from repro.core.family import Reference
from repro.graphs import erdos_renyi_bipartite, power_law_bipartite
from repro.sparsela import kernels
from tests.conftest import TINY_EXPECTED, tiny_named_graphs


@pytest.mark.parametrize("number", range(1, 9))
def test_block_size_one_equals_unblocked(number, corpus):
    for name, g in corpus[:5]:
        assert count_butterflies_blocked(
            g, number, block_size=1
        ) == count_butterflies_unblocked(g, number), (name, number)


@pytest.mark.parametrize("block_size", [1, 2, 3, 5, 16, 1000])
def test_all_block_sizes_match_spec(block_size, corpus):
    for name, g in corpus:
        assert count_butterflies_blocked(g, 2, block_size=block_size) == (
            butterflies_spec(g)
        ), (name, block_size)


@pytest.mark.parametrize("number", range(1, 9))
def test_every_invariant_blocked_on_tiny(number):
    for name, g in tiny_named_graphs().items():
        got = count_butterflies_blocked(g, number, block_size=2)
        assert got == TINY_EXPECTED[name], (name, number)


def test_block_larger_than_side():
    g = tiny_named_graphs()["k33"]
    assert count_butterflies_blocked(g, 2, block_size=50) == 9


def test_invalid_block_size():
    g = tiny_named_graphs()["k33"]
    with pytest.raises(ValueError, match="block_size"):
        count_butterflies_blocked(g, 2, block_size=0)


def test_panel_tiling_sums_to_total(medium_graph):
    """Disjoint panels tile Ξ_G under the suffix predicate."""
    pm, co = medium_graph.csc, medium_graph.csr
    n = pm.major_dim
    step = 97
    total = sum(
        panel_butterflies(pm, co, lo, min(lo + step, n), Reference.SUFFIX)
        for lo in range(0, n, step)
    )
    assert total == butterflies_spec_or_count(medium_graph)


def butterflies_spec_or_count(g):
    from repro.baselines import count_butterflies_scipy

    return count_butterflies_scipy(g)


def test_panel_empty_range():
    g = tiny_named_graphs()["k33"]
    assert panel_butterflies(g.csc, g.csr, 2, 2, Reference.SUFFIX) == 0


def test_prefix_and_suffix_panels_complementary(medium_graph):
    """Over the full index range, prefix-tiling and suffix-tiling each
    count every wedge pair exactly once and therefore agree."""
    pm, co = medium_graph.csr, medium_graph.csc
    n = pm.major_dim
    suffix = panel_butterflies(pm, co, 0, n, Reference.SUFFIX)
    prefix = panel_butterflies(pm, co, 0, n, Reference.PREFIX)
    assert suffix == prefix == butterflies_spec_or_count(medium_graph)


def test_blocked_medium_graph_all_invariants(medium_graph):
    expected = butterflies_spec_or_count(medium_graph)
    for number in range(1, 9):
        assert (
            count_butterflies_blocked(medium_graph, number, block_size=128)
            == expected
        ), number


# ------------------------------------------------ work-bounded panel cuts
def test_work_bounded_panels_tile_exactly():
    import numpy as np

    from repro.core import work_bounded_panels

    work = np.array([3, 3, 3, 10, 1, 1, 1, 1], dtype=np.int64)
    panels = work_bounded_panels(work, budget=6)
    covered = [i for lo, hi in panels for i in range(lo, hi)]
    assert covered == list(range(8))
    # every multi-pivot panel respects the budget
    for lo, hi in panels:
        if hi - lo > 1:
            assert int(work[lo:hi].sum()) <= 6


def test_work_bounded_panels_oversized_pivot_is_singleton():
    import numpy as np

    from repro.core import work_bounded_panels

    work = np.array([2, 100, 2], dtype=np.int64)
    panels = work_bounded_panels(work, budget=10)
    assert (1, 2) in panels  # the 100-work pivot stands alone


def test_work_bounded_panels_validation_and_empty():
    import numpy as np

    from repro.core import work_bounded_panels

    with pytest.raises(ValueError, match="budget"):
        work_bounded_panels(np.array([1, 2]), 0)
    assert work_bounded_panels(np.array([], dtype=np.int64), 5) == []


# ------------------------------------------------ panel reduction branches
def _branch_graph(branch, medium_graph, monkeypatch):
    """A graph whose panels drive the reduction kernel into ``branch``.

    ``medium_graph``'s panels fit the key-space cap (``bincount``); with
    the cap at 0, a sparse graph stays under 256 wedges per pivot
    (``sort``) and a dense one goes over (``scratch``).  ``auto`` is the
    unpatched kernel on ``medium_graph``.
    """
    if branch in ("auto", "bincount"):
        return medium_graph
    monkeypatch.setattr(kernels, "DEFAULT_KEYSPACE_CAP", 0)
    if branch == "sort":
        return power_law_bipartite(300, 300, 900, seed=11)
    return erdos_renyi_bipartite(80, 100, 0.5, seed=7)


@pytest.mark.parametrize("branch", ["auto", "sort", "bincount", "scratch"])
def test_panel_methods_agree(medium_graph, branch, monkeypatch):
    """Every reduction branch the kernel picks is a drop-in: panels tile
    the exact count whichever branch reduces them."""
    g = _branch_graph(branch, medium_graph, monkeypatch)
    pm, co = g.csc, g.csr
    n = pm.major_dim
    step = 89
    with obs.capture() as metrics:
        total = sum(
            panel_butterflies(pm, co, lo, min(lo + step, n), Reference.SUFFIX)
            for lo in range(0, n, step)
        )
    assert total == butterflies_spec_or_count(g)
    if branch != "auto":
        assert metrics.value(f"kernels.panel.method.{branch}") > 0


@pytest.mark.parametrize("branch", ["sort", "bincount", "scratch"])
def test_blocked_count_method_ablation(medium_graph, branch, monkeypatch):
    g = _branch_graph(branch, medium_graph, monkeypatch)
    expected = butterflies_spec_or_count(g)
    with obs.capture() as metrics:
        assert count_butterflies_blocked(g, 2) == expected
        assert count_butterflies_blocked(g, 6, block_size=32) == expected
    assert metrics.value(f"kernels.panel.method.{branch}") > 0
