"""Bucket-based tip decomposition (ParButterfly-style peeling).

The heap-based :func:`~repro.core.peeling.decompose.tip_numbers` pays a
log factor per update; the peeling literature (the paper's ref [12])
instead keeps vertices in an array of *buckets* indexed by current
butterfly count and sweeps the buckets in increasing order, moving
vertices between buckets as their counts drop.  Counts only ever decrease
during a peel, so each vertex moves at most (initial − final) times and
the sweep is linear in the total decrement volume.

Bucket indices are compressed through a dict (butterfly counts can be
large and sparse), keeping memory proportional to the number of *distinct*
current counts rather than their magnitude.

Produces bit-identical tip numbers to the heap implementation (asserted in
tests); exposed separately so the ablation benchmark can time the two
scheduling disciplines against each other.
"""

from __future__ import annotations

import os

import numpy as np

from repro import obs
from repro._types import COUNT_DTYPE
from repro.core.local_counts import vertex_butterfly_counts
from repro.core.parallel import DEFAULT_WEDGE_SHARD_BUDGET
from repro.core.workinfo import pivot_work_estimate
from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela import gather_slices

__all__ = [
    "tip_numbers_bucket",
    "wing_numbers_bucket",
    "tip_decrement_batch",
    "tip_numbers_bucket_parallel",
    "wing_numbers_bucket_parallel",
]

#: Count held by already-peeled vertices in the parallel bucket loop —
#: above every real count, so the minimum-bucket scan skips them.
_PEELED = np.iinfo(COUNT_DTYPE).max


def tip_numbers_bucket(graph: BipartiteGraph, side: str = "left") -> np.ndarray:
    """Tip number of every vertex on ``side`` via bucket peeling.

    Semantics identical to
    :func:`~repro.core.peeling.decompose.tip_numbers`; see there for the
    definition and the same-side-decrement argument that makes static
    wedge counts sufficient.
    """
    if side == "left":
        pivot_major, complementary = graph.csr, graph.csc
    elif side == "right":
        pivot_major, complementary = graph.csc, graph.csr
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    n = pivot_major.major_dim
    counts = vertex_butterfly_counts(graph, side).astype(COUNT_DTYPE)
    tip = np.zeros(n, dtype=COUNT_DTYPE)
    removed = np.zeros(n, dtype=bool)

    # buckets: current count -> set of vertices holding it
    buckets: dict[int, set[int]] = {}
    for v in range(n):
        buckets.setdefault(int(counts[v]), set()).add(v)

    level = 0
    processed = 0
    while processed < n:
        # the smallest occupied bucket is the next peel level
        current = min(buckets)
        bucket = buckets[current]
        if not bucket:
            del buckets[current]
            continue
        u = bucket.pop()
        if not bucket:
            del buckets[current]
        level = max(level, current)
        tip[u] = level
        removed[u] = True
        processed += 1
        # decrement still-present partners of u
        endpoints = gather_slices(
            complementary.indptr, complementary.indices, pivot_major.slice(u)
        )
        if endpoints.size == 0:
            continue
        endpoints = endpoints[endpoints != u]
        if endpoints.size == 0:
            continue
        uniq, mult = np.unique(endpoints, return_counts=True)
        alive = ~removed[uniq]
        uniq = uniq[alive]
        mult = mult[alive].astype(COUNT_DTYPE)
        lost = (mult * (mult - 1)) // 2
        for w, dc in zip(uniq, lost):
            if dc == 0:
                continue
            w = int(w)
            old = int(counts[w])
            new = old - int(dc)
            counts[w] = new
            old_bucket = buckets.get(old)
            if old_bucket is not None:
                old_bucket.discard(w)
                if not old_bucket:
                    del buckets[old]
            buckets.setdefault(new, set()).add(w)
    return tip


def tip_decrement_batch(
    pivot_major, complementary, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Butterfly-count losses caused by removing the vertex batch ``ids``.

    Vectorised over the whole batch: one gather expands every wedge of
    every removed vertex, and one sort of the endpoint-major keys
    ``w·|ids| + batch_pos`` yields the pairwise multiplicities already
    grouped by endpoint, so the per-pair C(mult, 2) losses reduce to one
    exact int64 ``np.add.reduceat`` over the endpoint runs — no length-n
    scratch, so a round costs its wedges, not the side's size.
    Multiplicities come from the *static original graph* — the
    same-side-decrement argument behind
    :func:`tip_numbers_bucket` makes per-removed-vertex contributions
    additive, so batching is exact.  Callers mask out already-removed
    endpoints themselves (the batch never has to know the peel state).

    Returns ``(affected, lost)``: the sorted unique same-side vertices
    that lose butterflies and their int64 losses (self-pairs excluded).
    """
    ids = np.asarray(ids, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    if ids.size == 0:
        return empty, np.zeros(0, dtype=COUNT_DTYPE)
    indptr = pivot_major.indptr
    deg = indptr[ids + 1] - indptr[ids]
    neighbors = gather_slices(indptr, pivot_major.indices, ids)
    comp_deg = (
        complementary.indptr[neighbors + 1] - complementary.indptr[neighbors]
    )
    endpoints = gather_slices(
        complementary.indptr, complementary.indices, neighbors
    )
    batch_pos = np.repeat(
        np.repeat(np.arange(ids.size, dtype=np.int64), deg), comp_deg
    )
    sel = endpoints != ids[batch_pos]
    if not sel.any():
        return empty, np.zeros(0, dtype=COUNT_DTYPE)
    width = np.int64(ids.size)
    keys = endpoints[sel] * width + batch_pos[sel]
    keys.sort()
    starts = _run_starts(keys)
    mult = np.diff(starts, append=keys.size).astype(COUNT_DTYPE, copy=False)
    shared = mult > 1  # pairs with one common neighbour lose nothing
    if not shared.any():
        return empty, np.zeros(0, dtype=COUNT_DTYPE)
    mult = mult[shared]
    per_pair = (mult * (mult - 1)) // 2
    owner = keys[starts[shared]] // width
    first = _run_starts(owner)
    return owner[first], np.add.reduceat(per_pair, first)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Offsets at which each run of equal entries of sorted ``values`` starts."""
    flags = np.empty(values.size, dtype=bool)
    flags[:1] = True
    np.not_equal(values[1:], values[:-1], out=flags[1:])
    return np.flatnonzero(flags)


def _peel_dispatch(n_workers, executor):
    """Resolve the per-round dispatcher for the parallel peeling loops.

    An explicit :class:`~repro.parallel.ButterflyExecutor` wins; otherwise
    the process-wide warm pool for ``n_workers > 1``; ``None`` means run
    the rounds serially in-process.
    """
    if executor is not None:
        return executor if executor.n_workers > 1 else None
    if n_workers is None:
        n_workers = min(os.cpu_count() or 1, 6)
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if n_workers == 1:
        return None
    from repro.parallel import get_default_executor

    return get_default_executor(n_workers)


def tip_numbers_bucket_parallel(
    graph: BipartiteGraph,
    side: str = "left",
    n_workers: int | None = None,
    executor=None,
) -> np.ndarray:
    """Tip numbers via synchronous bucket rounds with parallel recounts.

    Identical output to :func:`tip_numbers_bucket` (asserted in tests):
    each round extracts the *entire* minimum bucket at once and assigns it
    the running-max level — counts only ever decrease, so intra-bucket
    cascades cannot lift any member above the level it is extracted at —
    then computes the batch's butterfly losses.

    A round goes to the warm shared-memory pool
    (:meth:`ButterflyExecutor.tip_decrements`) only when its members'
    static wedge work reaches :data:`DEFAULT_WEDGE_SHARD_BUDGET` — below
    that a pool round-trip costs more than the wedges it would shard, so
    the round runs :func:`tip_decrement_batch` in-process.  Either way
    only the sparse ``(affected, lost)`` losses of surviving vertices are
    applied; nothing per round is O(side) beyond the minimum-bucket scan.
    The initial counts use the pool when there is one.  ``executor``
    accepts a caller-owned :class:`~repro.parallel.ButterflyExecutor`;
    ``n_workers=1`` (or an unavailable pool) runs every round in-process.
    """
    if side == "left":
        pivot_major, complementary = graph.csr, graph.csc
    elif side == "right":
        pivot_major, complementary = graph.csc, graph.csr
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    n = pivot_major.major_dim
    dispatch = _peel_dispatch(n_workers, executor)
    counts = None
    if dispatch is not None:
        try:
            counts = dispatch.vertex_counts(graph, side).astype(COUNT_DTYPE)
        except (OSError, PermissionError):
            obs.inc("parallel.shared_fallback")
            dispatch = None
    if counts is None:
        counts = vertex_butterfly_counts(graph, side).astype(COUNT_DTYPE)
    tip = np.zeros(n, dtype=COUNT_DTYPE)
    # static per-pivot wedge work, computed once for every round's gate
    # and sharding
    work = pivot_work_estimate(pivot_major, complementary)
    level = 0
    remaining = n
    while remaining:
        # peeled vertices hold _PEELED, so they never win the minimum
        current = int(counts.min())
        members = np.flatnonzero(counts == current)
        level = max(level, current)
        tip[members] = level
        counts[members] = _PEELED
        remaining -= len(members)
        if obs._enabled:
            obs.gauge(
                "peel.rounds.bucket_occupancy", len(members), policy="max"
            )
        if not remaining:
            break
        affected = None
        if (
            dispatch is not None
            and int(work[members].sum(dtype=COUNT_DTYPE))
            >= DEFAULT_WEDGE_SHARD_BUDGET
        ):
            try:
                dec = dispatch.tip_decrements(
                    graph, members, side=side, work=work
                )
                affected = np.flatnonzero(dec)
                lost = dec[affected]
            except (OSError, PermissionError):
                obs.inc("parallel.shared_fallback")
                dispatch = None
        if affected is None:
            affected, lost = tip_decrement_batch(
                pivot_major, complementary, members
            )
        alive = counts[affected] != _PEELED
        counts[affected[alive]] -= lost[alive]
    return tip


def wing_numbers_bucket_parallel(
    graph: BipartiteGraph,
    n_workers: int | None = None,
    executor=None,
) -> dict[tuple[int, int], int]:
    """Wing numbers via synchronous bucket rounds with parallel recounts.

    Identical output to :func:`wing_numbers_bucket` (asserted in tests).
    Each round extracts every edge of the minimum support bucket at the
    running-max level, rebuilds the survivor graph, and *recounts* its
    exact per-edge support — :meth:`ButterflyExecutor.edge_support` panels
    over the warm pool when available, the blocked serial kernel
    otherwise.  A full recount on the survivor graph equals the serial
    version's incremental support bookkeeping (both are the exact support
    of the remaining graph), so the levels coincide round for round.
    """
    edges = graph.edges()
    nnz = len(edges)
    if nnz == 0:
        return {}
    from repro.core.local_counts import edge_butterfly_support_blocked

    dispatch = _peel_dispatch(n_workers, executor)

    def _support_of(g):
        nonlocal dispatch
        if dispatch is not None:
            try:
                return dispatch.edge_support(g)
            except (OSError, PermissionError):
                obs.inc("parallel.shared_fallback")
                dispatch = None
        return edge_butterfly_support_blocked(g)

    support = _support_of(graph).astype(COUNT_DTYPE)
    alive = np.ones(nnz, dtype=bool)
    wing = np.zeros(nnz, dtype=COUNT_DTYPE)
    level = 0
    while True:
        current = int(support[alive].min())
        level = max(level, current)
        members = alive & (support == current)
        wing[members] = level
        alive &= ~members
        if obs._enabled:
            obs.gauge(
                "peel.rounds.bucket_occupancy",
                int(members.sum()),
                policy="max",
            )
        if not alive.any():
            break
        survivor = BipartiteGraph(
            edges[alive], n_left=graph.n_left, n_right=graph.n_right
        )
        # the survivor's CSR entry order is the original row-major edge
        # order filtered by ``alive``, so the recount scatters straight back
        support[alive] = _support_of(survivor)
    return {
        (int(u), int(v)): int(w) for (u, v), w in zip(edges, wing)
    }


def wing_numbers_bucket(graph: BipartiteGraph) -> dict[tuple[int, int], int]:
    """Wing number of every edge via bucket-scheduled peeling.

    Identical semantics to
    :func:`~repro.core.peeling.decompose.wing_numbers` (see there for the
    support-maintenance argument); the min-heap is replaced by count
    buckets, so scheduling is O(1) amortised per support decrement instead
    of O(log E).
    """
    from repro.core.local_counts import edge_butterfly_support_blocked
    from repro.core.peeling.decompose import _butterflies_of_edge

    edges = [tuple(map(int, e)) for e in graph.edges()]
    if not edges:
        return {}
    support0 = edge_butterfly_support_blocked(graph)
    support: dict[tuple[int, int], int] = {
        e: int(s) for e, s in zip(edges, support0)
    }
    adj_left: list[set] = [
        set(map(int, graph.csr.row(u))) for u in range(graph.n_left)
    ]
    adj_right: list[set] = [
        set(map(int, graph.csc.col(v))) for v in range(graph.n_right)
    ]
    buckets: dict[int, set[tuple[int, int]]] = {}
    for e, s in support.items():
        buckets.setdefault(s, set()).add(e)
    alive = set(edges)
    wing: dict[tuple[int, int], int] = {}
    level = 0
    while alive:
        current = min(buckets)
        bucket = buckets[current]
        if not bucket:
            del buckets[current]
            continue
        e = bucket.pop()
        if not bucket:
            del buckets[current]
        u, v = e
        level = max(level, support[e])
        wing[e] = level
        for w, y in list(_butterflies_of_edge(adj_left, adj_right, u, v)):
            for other in ((w, v), (u, y), (w, y)):
                if other in alive and other != e:
                    old = support[other]
                    support[other] = old - 1
                    ob = buckets.get(old)
                    if ob is not None:
                        ob.discard(other)
                        if not ob:
                            del buckets[old]
                    buckets.setdefault(old - 1, set()).add(other)
        alive.discard(e)
        adj_left[u].discard(v)
        adj_right[v].discard(u)
    return wing
