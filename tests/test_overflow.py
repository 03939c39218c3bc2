"""int64 overflow discipline: butterfly counts beyond 2^31 stay exact.

The K_{2,n} biclique is the cheapest graph whose butterfly count blows
through int32: every pair of the ``n`` right vertices closes a butterfly
with the two left hubs, so

    Ξ(K_{2,n}) = C(2,2) · C(n,2) = n(n-1)/2.

With n = 70 000 that is 2 449 965 000 > 2^31 = 2 147 483 648 from only
140 000 edges.  The per-pivot multiplicity is 70 000, so the
``counts·(counts−1)`` intermediate is ≈ 4.9·10⁹ > 2^32 — a genuine int32
tripwire at every accumulation site the RPR002 lint rule guards
(see docs/analysis.md).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import (
    count_butterflies_blocked,
    count_butterflies_parallel,
    count_butterflies_priority,
    edge_butterfly_support_priority,
    k_tip,
    tip_numbers_bucket_parallel,
    vertex_butterfly_counts_priority,
    count_butterflies_unblocked,
)
from repro.core import priority
from repro.core.peeling import buckets
from repro.graphs import BipartiteGraph

N_RIGHT = 70_000
EXPECTED = N_RIGHT * (N_RIGHT - 1) // 2  # 2_449_965_000 > 2**31


@pytest.fixture(scope="module")
def big_biclique() -> BipartiteGraph:
    """K_{2,70000}: two left hubs adjacent to every right vertex."""
    left = np.repeat(np.arange(2, dtype=np.int64), N_RIGHT)
    right = np.tile(np.arange(N_RIGHT, dtype=np.int64), 2)
    return BipartiteGraph(np.column_stack([left, right]))


def test_expected_exceeds_int32() -> None:
    assert EXPECTED > 2**31
    # the wedge-pair intermediate overflows uint32 too
    assert N_RIGHT * (N_RIGHT - 1) > 2**32


def test_family_sweep_past_2_31(big_biclique: BipartiteGraph) -> None:
    # invariant 6 pivots on the 2-vertex side: 2 pivots, huge multiplicity
    assert count_butterflies_unblocked(big_biclique, 6) == EXPECTED


def test_family_scratch_strategy_past_2_31(big_biclique: BipartiteGraph) -> None:
    got = count_butterflies_unblocked(big_biclique, 6, strategy="scratch")
    assert got == EXPECTED


def test_blocked_panel_past_2_31(big_biclique: BipartiteGraph) -> None:
    assert count_butterflies_blocked(big_biclique, 6) == EXPECTED


def test_shared_executor_past_2_31(big_biclique: BipartiteGraph) -> None:
    got = count_butterflies_parallel(
        big_biclique, n_workers=2, invariant=6, executor="shared"
    )
    assert got == EXPECTED


def test_priority_past_2_31(big_biclique: BipartiteGraph) -> None:
    # the two hubs rank on top: one pair (hub, hub) of multiplicity 70 000
    assert count_butterflies_priority(big_biclique) == EXPECTED


def test_priority_wide_build_with_narrow_panel_keys_past_2_31(
    big_biclique: BipartiteGraph,
) -> None:
    # the 70 002 ranks pack past 2^31, so the build sorts int64 keys; the
    # one busy panel is the top hub alone, whose key space (70 002) fits
    # int32 -- its 70 000 wedges all hit the pair (hub, hub)
    ranks = priority.priority_ranks(big_biclique)
    wedges = priority._RankedWedges(big_biclique, *ranks)
    assert wedges.adj.dtype == wedges.centre.dtype == np.int64
    ((lo, hi),) = wedges.panels()
    keys = wedges.keys(lo, hi)
    assert keys.dtype == np.int32 and keys.size == N_RIGHT
    assert count_butterflies_priority(big_biclique) == EXPECTED


def test_priority_vertex_counts_past_2_31(big_biclique: BipartiteGraph) -> None:
    # each hub sits in every butterfly; each right vertex pairs with the
    # other 69 999 — the reduction accumulates in int64, not float64
    left, right = vertex_butterfly_counts_priority(big_biclique)
    assert left.dtype == right.dtype == np.int64
    assert left.tolist() == [EXPECTED, EXPECTED]
    assert right.shape == (N_RIGHT,)
    assert (right == N_RIGHT - 1).all()


def test_edge_support_on_the_wide_build(big_biclique: BipartiteGraph) -> None:
    # every edge (hub, v) lies in one butterfly per other right vertex.
    # The int64 build's one busy panel is the top hub alone: its key
    # space (70 002) passes the histogram cap, so its wedges sort as
    # int64 keys with each 17-bit panel index packed below the pair
    support = edge_butterfly_support_priority(big_biclique)
    assert support.dtype == np.int64 and support.shape == (2 * N_RIGHT,)
    assert (support == N_RIGHT - 1).all()


def test_tip_numbers_past_2_31(big_biclique: BipartiteGraph) -> None:
    # the pair table holds (hub, hub) once per endpoint with its loss
    # C(70 000, 2), stored int64: C(d_max, 2) passes int32 on this side.
    # Its 70 000 upper wedges are half a wedge per edge: the table is built
    with obs.capture() as metrics:
        tips = tip_numbers_bucket_parallel(big_biclique, side="left", n_workers=1)
    assert "peel.tip.pair_table_fallback" not in metrics
    assert metrics.value("peel.tip.pair_table_bytes") > 0
    assert tips.dtype == np.int64
    assert tips.tolist() == [EXPECTED, EXPECTED]
    (_, _, loss), _, _ = buckets._pair_table(big_biclique.csr, big_biclique.csc)
    assert loss.dtype == np.int64 and loss.tolist() == [EXPECTED, EXPECTED]


def _with_third_row(
    big_biclique: BipartiteGraph, shared: int = 48_000
) -> BipartiteGraph:
    """K_{2,70000} plus a third left vertex on the first ``shared`` right
    vertices: it shares c = ``shared`` with each hub (48 000 by default,
    so c·(c − 1) > 2^31)."""
    third = np.column_stack(
        [np.full(shared, 2, dtype=np.int64), np.arange(shared, dtype=np.int64)]
    )
    return BipartiteGraph(np.concatenate([big_biclique.edges(), third]))


def test_tip_round_losses_past_2_31(big_biclique: BipartiteGraph) -> None:
    # the third vertex peels first (2·C(48 000, 2) = 2 303 952 000
    # butterflies) and its round takes its stored int64 loss C(48 000, 2)
    # from each hub, leaving the hubs at exactly C(70 000, 2)
    g = _with_third_row(big_biclique)
    assert 48_000 * 47_999 > 2**31
    tips = tip_numbers_bucket_parallel(g, side="left", n_workers=1)
    assert tips.tolist() == [EXPECTED, EXPECTED, 48_000 * 47_999]


def test_tip_wide_loss_rounds_past_2_31(big_biclique: BipartiteGraph) -> None:
    # with c = 66 000 the third vertex's loss to each hub, C(c, 2), passes
    # int32 on its own; the third vertex peels first, and the tip rounds
    # must subtract that int64 loss from each hub whole (a wrapped one
    # would lift the hubs above the level)
    g = _with_third_row(big_biclique, 66_000)
    third = 66_000 * 65_999
    assert third // 2 > 2**31
    with obs.capture() as metrics:
        tips = tip_numbers_bucket_parallel(g, side="left", n_workers=1)
        result = k_tip(g, third + 1, side="left")
    assert "peel.tip.pair_table_fallback" not in metrics
    assert tips.tolist() == [third, third, third]
    assert metrics.value("peel.tip.tip_numbers_reused") == 1
    # the hubs keep C(70 000, 2) < k once the third vertex is gone
    assert result.kept.tolist() == [False, False, False]
    assert result.rounds == 0


def test_k_tip_past_2_31(big_biclique: BipartiteGraph) -> None:
    # the hubs' count C(70 000, 2) passes int32: the recount rounds on a
    # fresh graph and the tip numbers a decomposition left must both
    # compare it with k whole
    fresh = BipartiteGraph(big_biclique.edges())
    g = BipartiteGraph(big_biclique.edges())
    tip_numbers_bucket_parallel(g, side="left", n_workers=1)
    for graph, rounds in ((fresh, 1), (g, 0)):
        kept = k_tip(graph, EXPECTED, side="left")
        gone = k_tip(graph, EXPECTED + 1, side="left")
        assert kept.kept.tolist() == [True, True] and kept.rounds == rounds
        assert kept.subgraph == big_biclique
        assert gone.kept.tolist() == [False, False] and gone.rounds == rounds
        assert gone.subgraph.n_edges == 0


def test_k_tip_round_losses_past_2_31(big_biclique: BipartiteGraph) -> None:
    # the hubs start at C(70 000, 2) + C(48 000, 2) > 2^31; k just above
    # the third vertex's count peels it in round 1, and the round-2
    # recount must leave the hubs at C(70 000, 2) >= k; the tip numbers
    # a decomposition left give the same k-tip in no round
    fresh = _with_third_row(big_biclique)
    g = _with_third_row(big_biclique)
    tip_numbers_bucket_parallel(g, side="left", n_workers=1)
    k = 48_000 * 47_999 + 1
    for graph, rounds in ((fresh, 2), (g, 0)):
        result = k_tip(graph, k, side="left")
        assert result.kept.tolist() == [True, True, False]
        assert result.rounds == rounds
        assert result.subgraph == BipartiteGraph(big_biclique.edges(), 3, N_RIGHT)
