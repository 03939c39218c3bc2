"""Bucket-based tip and wing decompositions (ParButterfly-style peeling).

The heap-based :func:`~repro.core.peeling.decompose.tip_numbers` /
:func:`~repro.core.peeling.decompose.wing_numbers` peel one item at a time
and pay a log factor per update; they stay as the references.  The
peeling literature (the paper's ref [12]) instead groups items into
*buckets* by current butterfly count and sweeps them in increasing order.
Counts only ever decrease during a peel, so the sweep is linear in the
total decrement volume.

- **Tips.**  :func:`tip_numbers_bucket_parallel` is the production tip
  decomposition.  Each synchronous round peels every survivor at or
  below the running level.  Removing a same-side vertex never changes
  c(u, w), the common neighbours of two survivors, so every loss the
  peel can apply is fixed up front (Shi & Shun's aggregated peel,
  arXiv:1907.08607): a one-time symmetric *pair table* holds each
  same-side pair with c ≥ 2 once per endpoint with its loss C(c, 2).  It
  lives in *survivor space*: only the vertices with such a pair get a
  row slot, and partners are slots.  Its row sums are the initial
  counts, and the rounds run over that one compact count vector, a
  peeled slot parked at a sentinel: a round is one min, one mask, one
  label write and one subtraction of its members' rows.  Past
  :data:`PAIR_TABLE_WEDGES_PER_EDGE` upper wedges per edge a side peels
  by re-expanding each round's wedges instead (:func:`_tip_decrements`),
  which peaks lower there.  Either way the table is dropped when the
  rounds end and the tip numbers are left on the graph: a vertex is in
  the k-tip exactly when its tip number is ≥ k, so a later
  :func:`~repro.core.peeling.tip.k_tip` on the same graph reads its kept
  set off them and runs no round.
- **Wings.**  :func:`wing_numbers_bucket` is the one wing peel.  Its
  initial supports come from one ranked-wedge pass
  (:func:`~repro.core.priority.edge_butterfly_support_priority`).  Each
  round peels every surviving edge at or below the level, then either
  enumerates the butterflies through its peeled edges and subtracts them
  from the edges that survive (Shi & Shun's edge peel) or, when that
  enumeration would cost far more, recounts the survivor graph with the
  same pass.

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
    edge_butterfly_support_priority,
    vertex_butterfly_counts_priority,
)
from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela import choose2, gather_slices, segment_sums
from repro.sparsela.kernels import run_starts

__all__ = ["wing_numbers_bucket", "tip_numbers_bucket_parallel"]

#: A side builds its pair table only when its pruned upper wedges W are
#: at most this many per edge; past it the tip peel takes the wedge rounds,
#: refused before any wedge is expanded.  Each stored pair takes >= 2 upper
#: wedges, so a build holds at most W/2 pairs, and at most 64 B per vertex,
#: edge, wedge of its largest chunk and pair: its tracemalloc peak stays
#: under 64·(n + m + nnz) + 96·W bytes + 64 KiB.  The e2e sides it refuses
#: (``github``-right, ``dense``: W/nnz >= 116.5 on seeds 0–9, <= 74.9 on
#: the rest) peak 2.9–15x lower by wedge rounds (EXPERIMENTS.md, "The tip
#: table is admitted by its wedge count").  Read at call time, so tests can
#: force either path (-inf refuses every side).
PAIR_TABLE_WEDGES_PER_EDGE: float = 100

#: The largest loss C(c, 2) the table stores as int32; a side whose
#: largest degree d has C(d, 2) above it stores int64 losses.  Read at
#: call time, so tests can force the wide loss.
_NARROW_LOSS_LIMIT: int = int(np.iinfo(PAIR_DTYPE).max)

#: A peeled slot's count in the table rounds.  Later rounds subtract at
#: most its count at peeling from it, so it stays above every live count.
_PEELED = np.iinfo(COUNT_DTYPE).max

#: A wing round recounts the survivors when its enumeration walk bound,
#: Σ deg(v)·deg(u) over the peeled edges (u, v), passes this many times the
#: recount's Σ deg(v)² wedges.  Re-swept over 1–16 on the ranked recount
#: (EXPERIMENTS.md, "One wedge engine for the wing peels"): never recounting
#: is 4–36× slower on disjoint bicliques; 1–4 run a biclique staircase
#: 1.7–3.8× faster but cost ``producers`` 15–54%, and 16 is 1.7× slower.
_RECOUNT_RATIO = 8


def _tip_decrements(
    pivot_major, complementary, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Butterfly-count losses caused by removing the vertex batch ``ids``.

    The round kernel of the wedge fallback of
    :func:`tip_numbers_bucket_parallel`, for sides past
    :data:`PAIR_TABLE_WEDGES_PER_EDGE`.  Vectorised over the whole
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
    starts = run_starts(keys)
    mult = np.diff(starts, append=keys.size).astype(COUNT_DTYPE, copy=False)
    shared = mult > 1  # pairs with one common neighbour lose nothing
    if not shared.any():
        return empty, np.zeros(0, dtype=COUNT_DTYPE)
    mult = mult[shared]
    per_pair = (mult * (mult - 1)) // 2
    owner = keys[starts[shared]] // width
    first = run_starts(owner)
    return owner[first], np.add.reduceat(per_pair, first)


def _pair_table(pivot_major, complementary):
    """The pivot side's same-side pair table, or ``None`` if refused.

    Returns ``(table, vertex, counts)`` in *survivor space*: only the
    pivots with at least one pair of c ≥ 2 common neighbours get a row,
    row slot i holding pivot ``vertex[i]`` (int32, ascending).  ``table``
    is one symmetric CSR over the slots, ``(indptr, partner, loss)``: row
    i holds each partner slot j once, as an int32 slot and the pair's
    loss C(c, 2) — its partners above it, then those below, each
    ascending — so every pair is stored once per endpoint; pairs with
    c = 1 close no butterfly and are dropped.  The loss is int32 when
    C(d_max, 2) fits :data:`_NARROW_LOSS_LIMIT` (d_max the pivot side's
    largest degree, which bounds every c), int64 otherwise.  ``counts``
    is every slot's butterfly count, its row sum of losses summed in
    int64 as the chunks are reduced; a pivot without a slot closes no
    butterfly.

    A degree-1 pivot shares at most one neighbour with anyone, so it
    stores no pair and changes no other pair's c: when the side has any,
    they are dropped from both views before a wedge is expanded.  The
    upper pairs (w > u) are then found chunk by chunk: contiguous pivots
    of at most :data:`~repro.core.priority.PRIORITY_PANEL_BUDGET` upper
    wedges (the suffix of v's ascending list after u; the priority
    kernel's cache-resident panel size, as fast as 2^16 and faster than
    2^14 or 2^18 here), reduced by one sort of ``row·n + w`` keys each.
    Once every chunk is reduced the slots are known, and each chunk's
    part is placed in both rows of its pairs (the partners' rows by one
    stable argsort), its partners relabelled to slots as it goes, and
    freed.  Before the first chunk a side past
    :data:`PAIR_TABLE_WEDGES_PER_EDGE` is refused (``None``).  A slot is
    below n and a multiplicity at most nnz/2, so the int32 storage holds
    while n < 2^31 and nnz < 2^32 (16 and 32 GiB of int64 index arrays).
    """
    n, nnz = pivot_major.major_dim, pivot_major.nnz
    indptr, indices = pivot_major.indptr, pivot_major.indices
    c_indptr, endpoints = complementary.indptr, complementary.indices
    deg = np.diff(indptr)
    d_max = int(deg.max(initial=0))
    narrow = d_max * (d_max - 1) // 2 <= _NARROW_LOSS_LIMIT
    loss_dtype = PAIR_DTYPE if narrow else COUNT_DTYPE
    keep = deg != 1
    if not keep.all():
        indices = indices[np.repeat(keep, deg)]
        deg *= keep
        indptr = np.concatenate(([0], np.cumsum(deg, dtype=INDEX_DTYPE)))
        kept = keep[endpoints]
        endpoints = endpoints[kept]
        c_indptr = np.concatenate(([0], np.cumsum(kept, dtype=INDEX_DTYPE)))[c_indptr]
    # entry e = (u, v) is number start[e] - 1 in column-major order: u's
    # slot in v's ascending list within ``endpoints``, so v's endpoints
    # w > u are the ``length[e]`` entries from start[e]
    start = indices * n
    start += np.repeat(np.arange(n, dtype=INDEX_DTYPE), deg)
    del deg
    start[start.argsort()] = np.arange(1, indices.size + 1, dtype=INDEX_DTYPE)
    length = c_indptr[indices + 1]
    length -= start
    del indices, c_indptr
    row_work = segment_sums(length, indptr, dtype=COUNT_DTYPE)
    prefix = np.zeros(n + 1, dtype=COUNT_DTYPE)
    np.cumsum(row_work, out=prefix[1:])
    # ``not <=``: a ratio of -inf refuses every side, an edgeless one too
    if not prefix[-1] <= PAIR_TABLE_WEDGES_PER_EDGE * nnz:
        return None
    panels = [
        (lo, hi, int(prefix[hi] - prefix[lo]))
        for lo, hi in work_bounded_panels(row_work, PRIORITY_PANEL_BUDGET)
        if prefix[hi] > prefix[lo]
    ]
    largest = max((wedges for _, _, wedges in panels), default=0)
    parts = []
    upper_ptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    lower_ptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    counts = np.zeros(n, dtype=COUNT_DTYPE)
    # keys ``row·n + w`` sort as int32 while a chunk spans few enough rows
    endpoints = endpoints.astype(PAIR_DTYPE)
    narrow_rows = np.iinfo(PAIR_DTYPE).max // max(n, 1)
    # every chunk slices its wedge ramp and its pairs' run lengths (at
    # most one per wedge) from these, rather than allocating its own
    ramp = np.arange(largest, dtype=INDEX_DTYPE)
    run_buf = np.empty(largest, dtype=PAIR_DTYPE)
    filled = 0
    for lo, hi, wedges in panels:
        e_lo, e_hi = indptr[lo], indptr[hi]
        runs = length[e_lo:e_hi]
        # wedge p of run k reads start[k] + (p - first wedge of run k)
        gather = start[e_lo:e_hi] + runs
        gather -= np.cumsum(runs, dtype=INDEX_DTYPE)
        gather = np.repeat(gather, runs)
        gather += ramp[:wedges]
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
        firsts = run_starts(keys)
        found = firsts.size
        if not found:
            continue
        c = run_buf[:found]
        np.subtract(firsts[1:], firsts[:-1], out=c[:-1])
        c[-1] = keys.size - firsts[-1]
        c += 1
        rows, partners = np.divmod(keys[firsts], n)
        del keys, firsts
        loss = choose2(c)
        part_loss = loss.astype(loss_dtype, copy=False)
        parts.append((lo, hi, partners.astype(PAIR_DTYPE), part_loss))
        filled += found
        upper_ptr[lo + 1 : hi + 1] = np.bincount(rows, minlength=hi - lo)
        lower_ptr[1:] += np.bincount(partners, minlength=n)
        np.add.at(counts, rows + lo, loss)
        np.add.at(counts, partners, loss)
        # ``c`` would keep ``run_buf`` alive into the placement
        del rows, partners, c, loss, part_loss
    del start, length, row_work, prefix, endpoints, indptr, ramp, run_buf
    np.cumsum(upper_ptr, out=upper_ptr)
    np.cumsum(lower_ptr, out=lower_ptr)
    table_ptr = upper_ptr + lower_ptr
    # the survivors, in vertex order: slot i's row starts where vertex[i]'s
    # would in a table over every pivot
    listed = table_ptr[1:] != table_ptr[:-1]
    vertex = np.flatnonzero(listed).astype(PAIR_DTYPE)
    slot = np.cumsum(listed, dtype=PAIR_DTYPE)
    slot -= 1
    del listed
    partner = np.empty(2 * filled, dtype=PAIR_DTYPE)
    loss = np.empty(2 * filled, dtype=loss_dtype)
    # each row's next free slot behind its upper entries
    cursor = upper_ptr[1:] + lower_ptr[:-1]
    parts.reverse()
    while parts:
        lo, hi, partners, part_loss = parts.pop()
        size, degrees = partners.size, np.diff(upper_ptr[lo : hi + 1])
        # upper entry i of row u goes to i + lower_ptr[u]
        at = np.repeat(lower_ptr[lo:hi], degrees)
        at += np.arange(upper_ptr[lo], upper_ptr[hi], dtype=INDEX_DTYPE)
        partner[at], loss[at] = slot[partners], part_loss
        del at
        # a stable argsort of the partners: sort ``partner·size + i`` keys
        keys = partners.astype(INDEX_DTYPE) * size + np.arange(size)
        keys.sort()
        owners, order = np.divmod(keys, size)
        del keys
        firsts = run_starts(owners)
        runs = np.diff(firsts, append=size)
        owners = owners[firsts]
        at = np.repeat(cursor[owners] - firsts, runs)
        at += np.arange(size, dtype=INDEX_DTYPE)
        partner[at] = np.repeat(slot[lo:hi], degrees)[order]
        loss[at] = part_loss[order]
        cursor[owners] += runs
    indptr = np.empty(vertex.size + 1, dtype=INDEX_DTYPE)
    indptr[:-1] = table_ptr[vertex]
    indptr[-1] = table_ptr[-1]
    return (indptr, partner, loss), vertex, counts[vertex]


def _table_rounds(counts: np.ndarray, table) -> np.ndarray:
    """Tip numbers of the table's slots by bucket rounds over their
    ``counts`` (consumed).

    Every slot starts alive with a positive count.  A round raises the
    level to the alive minimum, peels every slot at or below it, labels
    them, parks their counts at :data:`_PEELED` and subtracts their rows
    from their partners; no round gathers the survivors.  A one-member
    round reads one contiguous slice, no gather.  The losses are widened
    to int64 for the one ``np.subtract.at``: with int32 values into int64
    counts it leaves numpy's fast path, with int32 indices it does not.
    """
    indptr, partner, loss = table
    tip = np.zeros(counts.size, dtype=COUNT_DTYPE)
    peel = np.empty(counts.size, dtype=bool)
    alive, level = counts.size, 0
    while alive:
        level = max(level, int(np.minimum.reduce(counts)))
        np.less_equal(counts, level, out=peel)
        (members,) = peel.nonzero()
        tip[members] = level
        counts[members] = _PEELED
        alive -= members.size
        if obs._enabled:
            obs.gauge(
                "peel.rounds.bucket_occupancy", members.size, policy="max"
            )
        if not alive:
            break
        if members.size == 1:  # a row holds each partner once
            at = slice(indptr[members[0]], indptr[members[0] + 1])
        else:
            at = _entry_positions(indptr, members)
        np.subtract.at(counts, partner[at], loss[at].astype(COUNT_DTYPE, copy=False))
    return tip


def _bucket_rounds(counts: np.ndarray, tip: np.ndarray):
    """Yield each round's members: every survivor at or below the level
    (vertices of the tip peel's wedge fallback, edges of a wing peel).

    The level rises to the survivors' minimum count; counts only fall,
    so every survivor at or below it would be labelled it anyway.  A
    zero count keeps tip 0 and never survives into a round.  Members are
    labelled in ``tip`` and leave the ascending survivor list before they
    are yielded; the caller then brings the survivors' ``counts`` up to
    date (peeled members' counts are never read again).  The last round (no
    survivors) is not yielded.
    """
    level = 0
    alive = np.flatnonzero(counts)
    while alive.size:
        alive_counts = counts[alive]
        level = max(level, int(alive_counts.min()))
        peel = alive_counts <= level
        members = alive[peel]
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
    tests): each round raises the running-max level to the survivors'
    minimum and peels every survivor at or below it at once — counts only
    ever decrease, so intra-bucket cascades cannot lift any member above
    that level — then subtracts the batch's butterfly losses from the
    survivors.

    Removing a same-side vertex never changes c(u, w) for the pairs that
    survive it, so the losses are fixed before the first round.  One
    build (:func:`_pair_table`, leaves pruned) stores every pair with
    c ≥ 2 once per endpoint with its loss C(c, 2), over row slots for
    only the vertices that have such a pair (every other vertex keeps
    tip 0); its row sums are the initial counts.  The rounds
    (:func:`_table_rounds`) then subtract each round's rows from its
    members' partners (a peeled partner's count is never read again) — a
    one-member round reads one contiguous slice.  The table path records
    the ``peel.tip.pair_table_bytes`` gauge (the table and its slot map);
    the table is dropped when the rounds end.

    A side with more than :data:`PAIR_TABLE_WEDGES_PER_EDGE` upper
    wedges per edge (leaves pruned) builds no table: it counts
    ``peel.tip.pair_table_fallback`` and peels by wedge rounds, initial
    counts from one serial vertex-priority pass
    (:func:`~repro.core.priority.vertex_butterfly_counts_priority`), then
    each round's losses from :func:`_tip_decrements`.

    Both paths run in-process and never resolve a pool.  ``n_workers``
    is validated (``>= 1``) and otherwise ignored.  Both leave a
    read-only copy of the result on ``graph`` (n·8 bytes per side,
    replacing one left before) for a later
    :func:`~repro.core.peeling.tip.k_tip`; the caller's array is its own.
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
    table = _pair_table(pivot_major, complementary)
    if table is None:
        obs.inc("peel.tip.pair_table_fallback")
        _tip_wedge_rounds(graph, side, tip)
    else:
        pairs, vertex, counts = table
        if obs._enabled:
            obs.gauge(
                "peel.tip.pair_table_bytes",
                sum(a.nbytes for a in (*pairs, vertex)),
            )
        tip[vertex] = _table_rounds(counts, pairs)
    stored = tip.copy()
    stored.flags.writeable = False
    graph._tip_numbers[side] = stored
    return tip


def _tip_wedge_rounds(graph, side, tip) -> None:
    """The wedge fallback of :func:`tip_numbers_bucket_parallel`: fills
    ``tip``."""
    left, right = vertex_butterfly_counts_priority(graph)
    if side == "left":
        pivot_major, complementary, counts = graph.csr, graph.csc, left
    else:
        pivot_major, complementary, counts = graph.csc, graph.csr, right
    del left, right
    for members in _bucket_rounds(counts, tip):
        affected, lost = _tip_decrements(pivot_major, complementary, members)
        counts[affected] -= lost


def wing_numbers_bucket(graph: BipartiteGraph) -> dict[tuple[int, int], int]:
    """Wing number of every edge via synchronous bucket rounds; identical
    to the heap :func:`~repro.core.peeling.decompose.wing_numbers`.

    An edge is its CSR entry position, its initial support from
    :func:`~repro.core.priority.edge_butterfly_support_priority`; an
    edge in no butterfly keeps wing 0 and never enters a round.  Each
    round peels every survivor at or below the level, then subtracts the
    butterflies through its peeled edges (:func:`_subtract_wing_losses`)
    or, when that would walk far more (:data:`_RECOUNT_RATIO`), recounts
    the survivor graph.
    """
    csr = graph.csr
    if csr.nnz == 0:
        return {}
    rows, cols = csr.expand_major(), csr.indices
    support = edge_butterfly_support_priority(graph)
    wing = np.zeros(csr.nnz, dtype=COUNT_DTYPE)
    alive = support > 0
    peeled = np.zeros(csr.nnz, dtype=bool)
    n_alive = int(np.count_nonzero(alive))
    col_alive = np.bincount(cols[alive], minlength=graph.n_right)
    view = _wing_view(graph, rows, cols, np.flatnonzero(alive))
    for members in _bucket_rounds(support, wing):
        n_alive -= members.size
        np.subtract.at(col_alive, cols[members], 1)
        *_, row_deg, col_deg = view
        walks = np.dot(col_deg[cols[members]], row_deg[rows[members]])
        if walks > _RECOUNT_RATIO * np.dot(col_alive, col_alive):
            alive[members] = False
            survivor = BipartiteGraph.from_csr(csr.mask_entries(alive))
            support[alive] = edge_butterfly_support_priority(survivor)
        else:
            peeled[members] = True
            _subtract_wing_losses(support, alive, peeled, members, rows, cols, view)
            peeled[members] = alive[members] = False
        if 2 * n_alive < view[0].size:
            view = _wing_view(graph, rows, cols, np.flatnonzero(alive))
    return {
        (int(u), int(v)): int(w)
        for u, v, w in zip(rows.tolist(), cols.tolist(), wing.tolist())
    }


def _wing_view(graph, rows, cols, ids):
    """``(ids, keys, by_col, row_ptr, col_ptr, row_deg, col_deg)`` of the
    edges ``ids`` (ascending): position p is edge ``ids[p]`` with int64
    key ``u·n_right + v`` (ascending); row u holds positions
    ``row_ptr[u]:row_ptr[u + 1]``, column v ``by_col[col_ptr[v]:col_ptr[v + 1]]``."""
    r, c = rows[ids], cols[ids]
    row_deg = np.bincount(r, minlength=graph.n_left)
    col_deg = np.bincount(c, minlength=graph.n_right)
    row_ptr = np.concatenate(([0], np.cumsum(row_deg, dtype=INDEX_DTYPE)))
    col_ptr = np.concatenate(([0], np.cumsum(col_deg, dtype=INDEX_DTYPE)))
    keys = r * np.int64(graph.n_right) + c
    by_col = np.argsort(c, kind="stable")
    return ids, keys, by_col, row_ptr, col_ptr, row_deg, col_deg


def _subtract_wing_losses(support, alive, peeled, members, rows, cols, view):
    """Subtract every butterfly through the peeled edges ``members`` from
    the ``support`` of its surviving edges (Shi & Shun's edge peel).

    Butterfly (u, w) × (v, y) is found from peeled e = (u, v) by the
    wedge to f = (w, v), walking y over the shorter of rows u and w and
    looking the other corner up by ``searchsorted`` in the view's keys.
    ``alive`` and ``peeled`` both hold ``members``, so each butterfly is
    found from each of its peeled edges and charged to the lowest.
    Wedges and then lookups go in chunks of :data:`PRIORITY_PANEL_BUDGET`,
    so a hub round's temporaries stay bounded.
    """
    ids, keys, by_col, row_ptr, col_ptr, row_deg, col_deg = view
    n_right = np.int64(col_deg.size)

    def charged(edge, other):
        # ``other`` is present and not a peeled edge below ``edge``
        return alive[other] & ~(peeled[other] & (other < edge))

    wedges = col_deg[cols[members]]
    for lo, hi in work_bounded_panels(wedges, PRIORITY_PANEL_BUDGET):
        e = np.repeat(members[lo:hi], wedges[lo:hi])
        f = ids[by_col[_entry_positions(col_ptr, cols[members[lo:hi]])]]
        keep = charged(e, f) & (f != e)
        e, f = e[keep], f[keep]
        u, w = rows[e], rows[f]
        swap = row_deg[w] < row_deg[u]
        walk, other = np.where(swap, w, u), np.where(swap, u, w)
        steps = row_deg[walk]
        for w_lo, w_hi in work_bounded_panels(steps, PRIORITY_PANEL_BUDGET):
            wedge = np.repeat(np.arange(w_lo, w_hi), steps[w_lo:w_hi])
            walked = ids[_entry_positions(row_ptr, walk[w_lo:w_hi])]
            y, edge = cols[walked], e[wedge]
            query = other[wedge] * n_right + y
            found = np.minimum(np.searchsorted(keys, query), keys.size - 1)
            looked = ids[found]
            hit = (keys[found] == query) & (y != cols[edge])
            hit &= charged(edge, walked) & charged(edge, looked)
            losers = np.concatenate((f[wedge[hit]], walked[hit], looked[hit]))
            np.subtract.at(support, losers[~peeled[losers]], 1)
