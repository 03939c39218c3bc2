"""Bucket-based tip and wing decompositions (ParButterfly-style peeling).

The heap-based :func:`~repro.core.peeling.decompose.tip_numbers` /
:func:`~repro.core.peeling.decompose.wing_numbers` peel one item at a time
and pay a log factor per update; they stay as the references.  The
peeling literature (the paper's ref [12]) instead groups items into
*buckets* by current butterfly count and sweeps them in increasing order.
Counts only ever decrease during a peel, so the sweep is linear in the
total decrement volume.

- **Tips.**  :func:`tip_numbers_bucket_parallel` is the production tip
  decomposition.  Each synchronous round extracts the whole minimum
  bucket.  Removing a same-side vertex never changes the common-neighbour
  count c(u, w) of two survivors, so every loss the peel can apply is
  fixed up front: a one-time *pair table* holds each same-side pair with
  c ≥ 2, its row sums of C(c, 2) are the initial counts, and a round
  subtracts its members' precomputed losses (Shi & Shun's aggregated
  peel, arXiv:1907.08607).  A graph whose table would pass
  :data:`PAIR_TABLE_MAX_BYTES` peels by re-expanding each round's wedges
  instead (:func:`tip_decrement_batch`).  Each build is left on the
  graph, so an auto :func:`~repro.core.peeling.tip.k_tip` on the same
  graph afterwards peels from it too (:func:`_cached_pair_table`) — its
  fixpoint rounds become subtractions rather than recounts.
- **Wings.**  :func:`wing_numbers_bucket` (dict buckets, incremental
  per-edge support) is the production wing decomposition;
  :func:`wing_numbers_bucket_parallel` recounts the survivor graph's
  support every round instead.

Every path is bit-identical to its heap reference (asserted in tests),
and every path runs in-process: the paper's k-tip and k-wing peels are
serial fixpoints, and a process pool never beat the serial rounds here
(EXPERIMENTS.md, "Peel scheduling").
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro._types import COUNT_DTYPE, INDEX_DTYPE, PAIR_DTYPE
from repro.core.blocked import work_bounded_panels
from repro.core.priority import (
    PRIORITY_PANEL_BUDGET,
    vertex_butterfly_counts_priority,
)
from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela import choose2, gather_slices, segment_sums

__all__ = [
    "wing_numbers_bucket",
    "tip_decrement_batch",
    "tip_numbers_bucket_parallel",
    "wing_numbers_bucket_parallel",
]

#: Peak bytes the tip peel's pair table may reach, build transients
#: included.  A graph whose table would pass it peels by wedge rounds
#: instead.  On the e2e shapes (seed 0) ``occupations`` (~130k pairs, a
#: 3.8 MB build peak) takes the table with >= 1.8x headroom; ``github``,
#: ``skewed`` and ``dense`` (0.3–4.6M pairs) fall back.  A build gives up
#: as soon as it would cross the cap, so the cap is also what an aborted
#: build adds to the fallback's peak — that is what keeps it this low.
#: It also keeps every stored partner id and multiplicity below 2^31.
#: A fixed constant, not a knob; read at call time, so tests can force
#: either path; a table left on a graph serves only calls under the cap
#: it was built under.
PAIR_TABLE_MAX_BYTES: int = 8 << 20

#: Build bytes held per wedge of a chunk (the int64 gather index and its
#: arange, the sort keys, the repeat flags and positions) and per stored
#: pair (the int32 upper half and the chunk parts it is joined from, then
#: the transpose's int64 argsort, int32 row ids and int32 lower half).
_BYTES_PER_WEDGE = 32
_BYTES_PER_PAIR = 24


def tip_decrement_batch(
    pivot_major, complementary, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Butterfly-count losses caused by removing the vertex batch ``ids``.

    The round kernel of the wedge fallback of
    :func:`tip_numbers_bucket_parallel`, for graphs whose pair table
    would pass :data:`PAIR_TABLE_MAX_BYTES`.  Vectorised over the whole
    batch: one gather expands every wedge of every removed vertex, and
    one sort of the endpoint-major keys ``w·|ids| + batch_pos`` yields
    the pairwise multiplicities already grouped by endpoint, so the
    per-pair C(mult, 2) losses reduce to one exact int64
    ``np.add.reduceat`` over the endpoint runs — no length-n scratch, so
    a round costs its wedges, not the side's size.  Multiplicities come
    from the *static original graph* — the same-side-decrement argument
    behind :func:`~repro.core.peeling.decompose.tip_numbers` makes
    per-removed-vertex contributions additive, so batching is exact.
    Losses to already-removed endpoints are the caller's to ignore (the
    batch never has to know the peel state).

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


def _pair_table(pivot_major, complementary):
    """The pivot side's same-side pair table, or ``None`` past the cap.

    Returns ``(halves, counts)``.  ``halves`` holds two CSR halves over
    the pivot side as ``(indptr, partner, mult)`` triples: the upper half
    (row u holds each partner w > u) and its transpose (partners w < u).
    Every pair with c(u, w) ≥ 2 common neighbours is stored once per half
    as an int32 partner and int32 multiplicity; pairs with c = 1 close no
    butterfly and are dropped.  ``counts`` is every pivot's butterfly
    count — its row sums of C(c, 2) over both halves, widened to
    ``COUNT_DTYPE`` before the product.

    The upper half is built chunk by chunk: contiguous pivots of at most
    :data:`~repro.core.priority.PRIORITY_PANEL_BUDGET` upper wedges
    (endpoint w > u — the suffix of v's ascending list after u; the
    priority kernel's cache-resident panel size, as fast as 2^16 and
    faster than 2^14 or 2^18 here), reduced by one sort of ``row·n + w``
    keys each.  Before the first chunk the fixed arrays and the largest
    chunk are charged to :data:`PAIR_TABLE_MAX_BYTES` and the rest caps
    the pair count, so a graph with more pairs returns ``None`` as soon
    as a chunk would cross it: the whole peak, build transients included,
    stays under the cap.
    """
    n, nnz = pivot_major.major_dim, pivot_major.nnz
    cap = PAIR_TABLE_MAX_BYTES
    # the E- and n-length arrays held here and by the caller, checked
    # before any is allocated
    fixed = 8 * (3 * nnz + 8 * (n + 1))
    if fixed > cap:
        return None
    indptr, indices = pivot_major.indptr, pivot_major.indices
    # entry e = (u, v) is number start[e] - 1 in column-major order: u's
    # slot in v's ascending list within ``complementary.indices``, so v's
    # endpoints w > u are the ``length[e]`` entries from start[e]
    start = indices * n
    start += pivot_major.expand_major()
    start[start.argsort()] = np.arange(1, nnz + 1, dtype=INDEX_DTYPE)
    length = complementary.indptr[indices + 1]
    length -= start
    row_work = segment_sums(length, indptr, dtype=COUNT_DTYPE)
    prefix = np.zeros(n + 1, dtype=COUNT_DTYPE)
    np.cumsum(row_work, out=prefix[1:])
    panels = [
        (lo, hi, int(prefix[hi] - prefix[lo]))
        for lo, hi in work_bounded_panels(row_work, PRIORITY_PANEL_BUDGET)
        if prefix[hi] > prefix[lo]
    ]
    largest = max((wedges for _, _, wedges in panels), default=0)
    max_pairs = (cap - fixed - _BYTES_PER_WEDGE * largest) // _BYTES_PER_PAIR
    if max_pairs < 0:
        return None
    partner_parts, mult_parts = [], []
    upper_ptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    counts = np.zeros(n, dtype=COUNT_DTYPE)
    # keys ``row·n + w`` sort as int32 while a chunk spans few enough rows
    endpoints = complementary.indices.astype(PAIR_DTYPE)
    narrow_rows = np.iinfo(PAIR_DTYPE).max // max(n, 1)
    filled = 0
    for lo, hi, wedges in panels:
        e_lo, e_hi = indptr[lo], indptr[hi]
        runs = length[e_lo:e_hi]
        # wedge p of run k reads start[k] + (p - first wedge of run k)
        gather = start[e_lo:e_hi] + runs
        gather -= np.cumsum(runs, dtype=INDEX_DTYPE)
        gather = np.repeat(gather, runs)
        gather += np.arange(wedges, dtype=INDEX_DTYPE)
        keys = endpoints[gather]
        del gather
        if hi - lo > narrow_rows:
            keys = keys.astype(INDEX_DTYPE)
        keys += np.repeat(
            np.arange(0, (hi - lo) * n, n, dtype=keys.dtype), row_work[lo:hi]
        )
        keys.sort()
        # a pair of multiplicity c is a run of c equal keys; most pairs
        # have c = 1, so keep only the repeats before grouping
        keys = keys[np.flatnonzero(keys[1:] == keys[:-1])]
        firsts = _run_starts(keys)
        found = firsts.size
        if filled + found > max_pairs:
            return None
        c = np.diff(firsts, append=keys.size)
        c += 1
        rows, partners = np.divmod(keys[firsts], n)
        del keys, firsts
        partner_parts.append(partners.astype(PAIR_DTYPE, copy=False))
        mult_parts.append(c.astype(PAIR_DTYPE))
        filled += found
        upper_ptr[lo + 1 : hi + 1] = np.bincount(rows, minlength=hi - lo)
        loss = choose2(c)
        np.add.at(counts, rows + lo, loss)
        np.add.at(counts, partners, loss)
    del start, length, row_work, prefix, endpoints
    np.cumsum(upper_ptr, out=upper_ptr)
    partner = np.concatenate(partner_parts or [np.empty(0, dtype=PAIR_DTYPE)])
    mult = np.concatenate(mult_parts or [np.empty(0, dtype=PAIR_DTYPE)])
    del partner_parts, mult_parts
    lower_ptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(partner, minlength=n), out=lower_ptr[1:])
    order = np.argsort(partner)
    rows = np.repeat(np.arange(n, dtype=PAIR_DTYPE), np.diff(upper_ptr))
    lower_partner = rows[order]
    del rows
    lower_mult = mult[order]
    del order
    halves = (
        (upper_ptr, partner, mult),
        (lower_ptr, lower_partner, lower_mult),
    )
    return halves, counts


def _cached_pair_table(graph: BipartiteGraph, side: str):
    """The pair table :func:`tip_numbers_bucket_parallel` left on
    ``graph`` for ``side``, as read-only ``(halves, counts)``, or ``None``.

    Never builds one.  A table is returned (counting
    ``peel.tip.pair_table_reused``) only if it was built under the
    :data:`PAIR_TABLE_MAX_BYTES` read now, so lowering the cap forces the
    same path on a graph with a table as on a fresh one.
    """
    entry = graph._pair_tables.get(side)
    if entry is None or entry[0] != PAIR_TABLE_MAX_BYTES:
        return None
    obs.inc("peel.tip.pair_table_reused")
    return entry[1]


def _subtract_pair_losses(counts, halves, members: np.ndarray) -> None:
    """Subtract the butterflies the same-side vertices ``members`` close
    with each partner from ``counts`` (a pair table's ``halves``); a
    one-member batch reads two contiguous slices, no gather."""
    if members.size == 1:
        u = members[0]
        for indptr, partner, mult in halves:
            # a row holds each partner once
            lo, hi = indptr[u], indptr[u + 1]
            counts[partner[lo:hi]] -= choose2(mult[lo:hi])
    else:
        for indptr, partner, mult in halves:
            at = _entry_positions(indptr, members)
            np.subtract.at(counts, partner[at], choose2(mult[at]))


def _bucket_rounds(counts: np.ndarray, tip: np.ndarray):
    """Yield each round's members: the whole minimum bucket of the survivors.

    Members are labelled in ``tip`` with the running-max level and leave
    the ascending survivor list before they are yielded; the caller then
    subtracts the round's losses from ``counts``.  Only survivors' counts
    are ever read again, so callers may subtract from peeled vertices too
    rather than mask them out.  The last round (no survivors) is labelled
    but not yielded.
    """
    level = 0
    alive = np.arange(counts.size, dtype=INDEX_DTYPE)
    while alive.size:
        alive_counts = counts[alive]
        current = int(alive_counts.min())
        peel = alive_counts == current
        members = alive[peel]
        level = max(level, current)
        tip[members] = level
        alive = alive[~peel]
        if obs._enabled:
            obs.gauge(
                "peel.rounds.bucket_occupancy", len(members), policy="max"
            )
        if alive.size:
            yield members


def _entry_positions(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions of the entries of CSR ``rows``, row after row."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = np.cumsum(lengths, dtype=INDEX_DTYPE)
    positions = np.repeat(starts + lengths - ends, lengths)
    positions += np.arange(ends[-1], dtype=INDEX_DTYPE)
    return positions


def tip_numbers_bucket_parallel(
    graph: BipartiteGraph,
    side: str = "left",
    n_workers: int | None = None,
) -> np.ndarray:
    """Tip numbers via synchronous bucket rounds over a same-side pair table.

    Identical output to the heap reference
    :func:`~repro.core.peeling.decompose.tip_numbers` (asserted in
    tests): each round extracts the *entire* minimum bucket at once and
    assigns it the running-max level — counts only ever decrease, so
    intra-bucket cascades cannot lift any member above the level it is
    extracted at — then subtracts the batch's butterfly losses from the
    survivors.

    Removing a same-side vertex never changes c(u, w) for the pairs that
    survive it, so the losses are fixed before the first round.  One
    build (:func:`_pair_table`) stores every pair with c ≥ 2; its row
    sums of C(c, 2) are the initial counts, and a round slices its
    members' rows and subtracts C(c, 2) from each partner (a peeled
    partner's count is never read again) — a one-member round reads two
    contiguous slices, no gather.  The table path records the
    ``peel.tip.pair_table_bytes`` gauge.  Every call builds its own
    table and leaves it, read-only, on ``graph`` (replacing one left
    before) for a later :func:`~repro.core.peeling.tip.k_tip`.

    A graph whose table would pass :data:`PAIR_TABLE_MAX_BYTES` (build
    transients included) counts ``peel.tip.pair_table_fallback`` and
    peels by wedge rounds: initial counts from one serial vertex-priority
    pass (:func:`~repro.core.priority.vertex_butterfly_counts_priority`),
    then each round's losses from :func:`tip_decrement_batch`.

    Both paths run in-process and never resolve a pool.  ``n_workers``
    is validated (``>= 1``) and otherwise ignored.
    """
    if side == "left":
        pivot_major, complementary = graph.csr, graph.csc
    elif side == "right":
        pivot_major, complementary = graph.csc, graph.csr
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if n_workers is not None and n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    tip = np.zeros(pivot_major.major_dim, dtype=COUNT_DTYPE)
    cap = PAIR_TABLE_MAX_BYTES
    table = _pair_table(pivot_major, complementary)
    if table is None:
        obs.inc("peel.tip.pair_table_fallback")
        return _tip_wedge_rounds(graph, side, tip)
    halves, counts = table
    stored = counts.copy()
    for array in (stored, *(a for half in halves for a in half)):
        array.flags.writeable = False
    graph._pair_tables[side] = (cap, (halves, stored))
    if obs._enabled:
        obs.gauge(
            "peel.tip.pair_table_bytes",
            sum(a.nbytes for half in halves for a in half),
        )
    for members in _bucket_rounds(counts, tip):
        _subtract_pair_losses(counts, halves, members)
    return tip


def _tip_wedge_rounds(graph, side, tip) -> np.ndarray:
    """The wedge fallback of :func:`tip_numbers_bucket_parallel`."""
    left, right = vertex_butterfly_counts_priority(graph)
    if side == "left":
        pivot_major, complementary, counts = graph.csr, graph.csc, left
    else:
        pivot_major, complementary, counts = graph.csc, graph.csr, right
    del left, right
    for members in _bucket_rounds(counts, tip):
        affected, lost = tip_decrement_batch(pivot_major, complementary, members)
        counts[affected] -= lost
    return tip


def wing_numbers_bucket_parallel(
    graph: BipartiteGraph,
) -> dict[tuple[int, int], int]:
    """Wing numbers via synchronous bucket rounds with full recounts.

    Identical output to :func:`wing_numbers_bucket` (asserted in tests).
    Each round extracts every edge of the minimum support bucket at the
    running-max level, rebuilds the survivor graph, and *recounts* its
    exact per-edge support with
    :func:`~repro.core.local_counts.edge_butterfly_support_blocked`.  A
    full recount on the survivor graph equals the serial version's
    incremental support bookkeeping (both are the exact support of the
    remaining graph), so the levels coincide round for round.
    """
    edges = graph.edges()
    nnz = len(edges)
    if nnz == 0:
        return {}
    from repro.core.local_counts import edge_butterfly_support_blocked

    support = edge_butterfly_support_blocked(graph)
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
        support[alive] = edge_butterfly_support_blocked(survivor)
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
