"""Round-based bucket peeling must match the reference fixpoints bitwise.

The round loops extract the whole minimum bucket per round and recount in
parallel shards through the shared executor; the contract is *bitwise
identity* with the heap ``tip_numbers`` and with ``wing_numbers_bucket``
(itself pinned against the heap ``wing_numbers``) — on every corpus
shape, both sides, and for both the in-process loop (``n_workers=1``)
and a real pool (``n_workers=2``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import (
    tip_decrement_batch,
    tip_numbers,
    tip_numbers_bucket_parallel,
    wing_numbers_bucket,
    wing_numbers_bucket_parallel,
)
from repro.core.peeling import buckets
from repro.graphs import (
    BipartiteGraph,
    erdos_renyi_bipartite,
    planted_bicliques,
    power_law_bipartite,
)


@pytest.fixture(scope="module", autouse=True)
def _retire_shared_executors():
    """Leave no warm default executor (and no published /dev/shm segment)
    behind — the sharedmem suite asserts segment-leak-freedom globally."""
    yield
    from repro.parallel import shutdown_default_executors

    shutdown_default_executors()


def _graphs() -> dict[str, BipartiteGraph]:
    return {
        "empty": BipartiteGraph.empty(6, 8),
        "star": BipartiteGraph([(0, j) for j in range(8)], n_left=1, n_right=8),
        "complete": BipartiteGraph.complete(4, 5),
        "er": erdos_renyi_bipartite(25, 30, 0.15, seed=101),
        "powerlaw": power_law_bipartite(40, 50, 250, seed=102),
        "planted": planted_bicliques(
            24, 24, 2, 4, 4, background_edges=30, seed=103
        ),
    }


GRAPHS = _graphs()

TIP_REFERENCE = {
    (name, side): tip_numbers(g, side=side)
    for name, g in GRAPHS.items()
    for side in ("left", "right")
}
WING_REFERENCE = {name: wing_numbers_bucket(g) for name, g in GRAPHS.items()}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("side", ("left", "right"))
@pytest.mark.parametrize("n_workers", (1, 2))
def test_tip_parallel_matches_serial_bucket(graph_name, side, n_workers):
    got = tip_numbers_bucket_parallel(
        GRAPHS[graph_name], side=side, n_workers=n_workers
    )
    np.testing.assert_array_equal(got, TIP_REFERENCE[(graph_name, side)])


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("n_workers", (1, 2))
def test_wing_parallel_matches_serial_bucket(graph_name, n_workers):
    got = wing_numbers_bucket_parallel(GRAPHS[graph_name], n_workers=n_workers)
    assert got == WING_REFERENCE[graph_name]


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("side", ("left", "right"))
def test_tip_parallel_pooled_rounds_match_serial_bucket(
    graph_name, side, monkeypatch
):
    """With the round gate's wedge budget at 0 every round goes to
    ``tip_decrements``, so multi-member rounds really use the pool."""
    from repro.parallel import get_default_executor

    monkeypatch.setattr(buckets, "DEFAULT_WEDGE_SHARD_BUDGET", 0)
    executor = get_default_executor(2)
    before = executor.dispatch_count
    got = tip_numbers_bucket_parallel(
        GRAPHS[graph_name], side=side, n_workers=2
    )
    np.testing.assert_array_equal(got, TIP_REFERENCE[(graph_name, side)])
    if graph_name in ("er", "powerlaw", "planted"):
        assert executor.dispatch_count - before > 1


def test_tip_parallel_light_rounds_skip_the_pool():
    """Under the real gate corpus rounds are far below the wedge budget,
    and the initial counts are one serial priority pass: a call makes no
    dispatch at all."""
    from repro.parallel import get_default_executor

    executor = get_default_executor(2)
    g = GRAPHS["powerlaw"]
    for _ in range(2):
        before = executor.dispatch_count
        tip_numbers_bucket_parallel(g, side="left", n_workers=2)
        assert executor.dispatch_count - before == 0


def test_tip_parallel_rejects_bad_args():
    g = GRAPHS["er"]
    with pytest.raises(ValueError, match="side"):
        tip_numbers_bucket_parallel(g, side="middle")
    with pytest.raises(ValueError, match="n_workers"):
        tip_numbers_bucket_parallel(g, n_workers=0)


def test_tip_decrement_batch_matches_single_removals():
    """A batch's per-vertex count losses equal the sum of the losses each
    removed vertex would cause alone on the *same static graph* — the
    additivity the bucketed rounds rely on.  Also pinned against the
    dense Σ_{u∈batch} C((AAᵀ)_uw, 2) form, on a spread-out batch, a batch
    holding the hub, and a batch whose members share endpoints (so the
    endpoint-major aggregation sums runs from several batch positions)."""
    g = GRAPHS["powerlaw"]
    pm, comp = g.csr, g.csc
    a = g.biadjacency_dense(np.int64)
    common = a @ a.T
    hub = int(np.argmax(pm.degrees()))
    # every partner has >= 2 common neighbours with the hub, so the hub is
    # an endpoint that loses butterflies to each of them
    partners = [int(w) for w in np.flatnonzero(common[hub] >= 2) if w != hub]
    assert len(partners) >= 3
    batches = {
        "spread": [0, 3, 7, 11],
        "hub": [hub, 0, 3],
        "shared": partners[:4],
    }
    for name, members in batches.items():
        ids = np.array(members, dtype=np.int64)
        affected, lost = tip_decrement_batch(pm, comp, ids)
        assert np.all(np.diff(affected) > 0) and np.all(lost > 0), name
        dense = np.zeros(pm.major_dim, dtype=np.int64)
        dense[affected] = lost
        expected = np.zeros(pm.major_dim, dtype=np.int64)
        for v in ids:
            a_v, l_v = tip_decrement_batch(
                pm, comp, np.array([v], dtype=np.int64)
            )
            expected[a_v] += l_v
        np.testing.assert_array_equal(dense, expected, err_msg=name)
        pair_losses = common[ids] * (common[ids] - 1) // 2
        pair_losses[np.arange(ids.size), ids] = 0  # no self-pairs
        np.testing.assert_array_equal(
            dense, pair_losses.sum(axis=0), err_msg=name
        )
        if name == "shared":
            assert dense[hub] > 0  # the members' common endpoint


def test_tip_decrement_batch_empty_ids():
    g = GRAPHS["er"]
    affected, lost = tip_decrement_batch(g.csr, g.csc, np.array([], dtype=np.int64))
    assert affected.size == 0 and lost.size == 0


# ----------------------------------------------------------------------
# observability: round-size gauge
# ----------------------------------------------------------------------
def test_bucket_occupancy_gauge_records_largest_round():
    with obs.capture() as metrics:
        tip_numbers_bucket_parallel(GRAPHS["planted"], n_workers=2)
    gauge = metrics.gauge("peel.rounds.bucket_occupancy")
    assert gauge.policy == "max"
    assert metrics.value("peel.rounds.bucket_occupancy") >= 1
    # the max-policy gauge records the largest extracted bucket, which is
    # bounded by the peeled side's vertex count
    assert metrics.value("peel.rounds.bucket_occupancy") <= GRAPHS["planted"].n_left


def test_bucket_occupancy_gauge_from_wing_rounds():
    with obs.capture() as metrics:
        wing_numbers_bucket_parallel(GRAPHS["er"], n_workers=2)
    assert metrics.value("peel.rounds.bucket_occupancy") >= 1
