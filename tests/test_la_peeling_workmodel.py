"""Tests for the linear-algebra peeling forms and the work model."""

import numpy as np
import pytest

from repro.core.workinfo import WorkProfile, work_profile
from repro.core import (
    k_tip,
    k_tip_linear_algebra,
    k_wing,
    k_wing_linear_algebra,
)
from repro.graphs import load_dataset, planted_bicliques
from tests.conftest import tiny_named_graphs


# ----------------------------------------------------------- LA peeling
@pytest.mark.parametrize("k", [0, 1, 3, 10])
def test_la_tip_matches_fast(k, corpus):
    for name, g in corpus[:6]:
        fast = k_tip(g, k)
        la = k_tip_linear_algebra(g, k)
        assert np.array_equal(fast.kept, la.kept), (name, k)
        assert fast.subgraph == la.subgraph, (name, k)


def test_la_tip_right_side(corpus):
    name, g = corpus[3]
    fast = k_tip(g, 2, side="right")
    la = k_tip_linear_algebra(g, 2, side="right")
    assert np.array_equal(fast.kept, la.kept)
    assert la.side == "right"


@pytest.mark.parametrize("k", [0, 1, 4])
def test_la_wing_matches_fast(k, corpus):
    for name, g in corpus[:6]:
        fast = k_wing(g, k)
        la = k_wing_linear_algebra(g, k)
        assert fast.subgraph == la.subgraph, (name, k)


def test_la_wing_k33():
    g = tiny_named_graphs()["k33"]
    assert k_wing_linear_algebra(g, 4).n_edges == 9
    assert k_wing_linear_algebra(g, 5).n_edges == 0


def test_la_peeling_validation():
    g = tiny_named_graphs()["k33"]
    with pytest.raises(ValueError, match="non-negative"):
        k_tip_linear_algebra(g, -1)
    with pytest.raises(ValueError, match="non-negative"):
        k_wing_linear_algebra(g, -1)
    with pytest.raises(ValueError, match="side"):
        k_tip_linear_algebra(g, 1, side="top")


def test_la_tip_on_planted():
    g = planted_bicliques(20, 20, 2, 4, 4, background_edges=15, seed=9)
    fast = k_tip(g, 10)
    la = k_tip_linear_algebra(g, 10)
    assert np.array_equal(fast.kept, la.kept)


# ------------------------------------------------------------ work model
def test_work_profile_prefix_suffix_tile():
    """For any sweep, prefix work + suffix work = (pivots + 1) · nnz:
    every stored entry is scanned by all pivots but its own, and each
    sweep scatters every pivot's own entries once (the marker)."""
    g = load_dataset("arxiv")
    for a, b, n in ((1, 2, g.n_right), (5, 6, g.n_left)):
        wp_pre = work_profile(g, a, "spmv")
        wp_suf = work_profile(g, b, "spmv")
        assert wp_pre.total_ops + wp_suf.total_ops == (n + 1) * g.n_edges


def test_work_profile_direction_invariance():
    """The sweep direction does not change the work, only its schedule."""
    g = load_dataset("arxiv")
    assert work_profile(g, 1).total_ops == work_profile(g, 3).total_ops
    assert work_profile(g, 2).total_ops == work_profile(g, 4).total_ops
    assert work_profile(g, 6).total_ops == work_profile(g, 8).total_ops


def test_work_model_explains_smaller_side_rule():
    """The model reproduces Fig. 10's winner on every stand-in, with no
    timing involved."""
    from repro.graphs import dataset_names

    for name in dataset_names():
        g = load_dataset(name)
        col_work = work_profile(g, 2, "spmv").total_ops
        row_work = work_profile(g, 6, "spmv").total_ops
        if g.n_right < g.n_left:
            assert col_work < row_work, name
        else:
            assert row_work < col_work, name


def test_scratch_work_is_wedge_expansion_count():
    g = load_dataset("arxiv")
    wp = work_profile(g, 2, "scratch")
    # total expansions = Σ over entries of complementary degree
    comp_deg = np.diff(g.csr.indptr)
    expected = int(comp_deg[g.csc.indices].sum())
    assert wp.total_ops == expected


def test_scratch_work_side_dependent_only():
    """Scratch work depends on the traversed side, not the reference."""
    g = load_dataset("producers")
    assert (
        work_profile(g, 1, "scratch").total_ops
        == work_profile(g, 2, "scratch").total_ops
    )


def test_work_profile_fields():
    g = tiny_named_graphs()["k33"]
    wp = work_profile(g, 2, "spmv")
    assert isinstance(wp, WorkProfile)
    assert wp.pivots == 3
    assert wp.max_pivot_ops <= g.n_edges


def test_work_profile_empty_graph():
    from repro.graphs import BipartiteGraph

    wp = work_profile(BipartiteGraph.empty(0, 0), 1)
    assert wp.total_ops == 0 and wp.pivots == 0 and wp.max_pivot_ops == 0


def test_work_profile_invalid_strategy():
    g = tiny_named_graphs()["k33"]
    with pytest.raises(ValueError, match="strategy"):
        work_profile(g, 1, "magic")
