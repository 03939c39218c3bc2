"""Integration tests: every family member × strategy agrees with the dense
specification and with every independent baseline on a corpus of graphs."""

import pytest

from repro.baselines import (
    count_butterflies_bruteforce,
    count_butterflies_degree_ordered,
    count_butterflies_networkx,
    count_butterflies_scipy,
)
from repro.core import (
    butterflies_spec,
    count_butterflies,
    count_butterflies_blocked,
    count_butterflies_parallel,
    count_butterflies_unblocked,
)


def _all_family_counts(g):
    for number in range(1, 9):
        for strategy in ("scratch", "spmv"):
            yield f"inv{number}/{strategy}", count_butterflies_unblocked(
                g, number, strategy=strategy
            )


def test_family_matches_spec_on_corpus(corpus):
    for name, g in corpus:
        expected = butterflies_spec(g)
        for label, got in _all_family_counts(g):
            assert got == expected, (name, label)


def test_family_matches_all_baselines_on_corpus(corpus):
    for name, g in corpus:
        expected = count_butterflies(g)
        assert count_butterflies_scipy(g) == expected, name
        assert count_butterflies_degree_ordered(g) == expected, name
        if g.n_left <= 40:  # brute force is quadratic in |V1|
            assert count_butterflies_bruteforce(g) == expected, name


def test_family_matches_networkx_on_small(tiny_graphs):
    for name, g in tiny_graphs.items():
        assert count_butterflies_networkx(g) == count_butterflies(g), name


def test_blocked_and_parallel_match_on_corpus(corpus):
    for name, g in corpus:
        expected = count_butterflies(g)
        assert count_butterflies_blocked(g, 2, block_size=7) == expected, name
        assert count_butterflies_blocked(g, 5, block_size=3) == expected, name
        assert (
            count_butterflies_parallel(g, n_workers=2, executor="serial")
            == expected
        ), name


def test_medium_graph_cross_validation(medium_graph):
    """One larger graph through the full matrix of implementations."""
    expected = count_butterflies_scipy(medium_graph)
    assert expected > 0
    for label, got in _all_family_counts(medium_graph):
        assert got == expected, label
    assert count_butterflies_blocked(medium_graph, 2, block_size=64) == expected
    assert count_butterflies_blocked(medium_graph, 7, block_size=64) == expected
    assert (
        count_butterflies_parallel(medium_graph, n_workers=2, executor="shared")
        == expected
    )
    assert count_butterflies_degree_ordered(medium_graph) == expected


@pytest.mark.parametrize("name", ["arxiv", "recordlabels"])
def test_dataset_standins_cross_validated(name):
    """Two Fig. 9 stand-ins (the smallest and the most skewed) through the
    family vs the scipy oracle — the fig9 benchmark covers all five."""
    from repro.graphs import load_dataset

    g = load_dataset(name)
    expected = count_butterflies_scipy(g)
    assert expected > 0
    assert count_butterflies_unblocked(g, 2) == expected
    assert count_butterflies_unblocked(g, 7) == expected
