"""Vertex-priority butterfly counting: each butterfly charged to its top vertex.

Wang et al. (arXiv:1812.00283, BFC-VP) rank the vertices of *both* sides
together by (degree, id) and expand a wedge (u, v, w) — centre v,
endpoints u and w on the same side — only when u outranks both v and w.
Summing C(k, 2) over the multiplicity k of every (u, w) endpoint pair
then counts each butterfly exactly once.

Why once: let z be a butterfly's highest-ranked vertex and z' the vertex
opposite it (same side, no shared edge).  Both wedges between z and z'
have their centres and their far endpoint z' below z, so the pair
(z, z') sees multiplicity contributions from both and counts the
butterfly.  From any other vertex u of the butterfly, one of the two
wedges towards u's opposite vertex passes through z (as centre or far
endpoint), which outranks u, so the pair never collects both.

Degree order is what makes the filter pay: a wedge is expanded only from
its top-ranked vertex, so hubs act as centres only for higher-degree
endpoints, and the expanded set shrinks from the fixed-side Σ deg² to
Σ_v [C(d_v, 2) − C(l_v, 2)], where l_v is v's number of lower-ranked
neighbours (:func:`priority_wedge_work`, exact for this kernel).

The kernel is serial numpy over whole-graph arrays: relabel all m + n
vertices by rank, build the symmetric adjacency with every list sorted
ascending, and for each edge v < u gather the prefix of adj(v) that lies
below u — exactly the endpoints w < u.  The build takes two in-place
sorts of shift-packed keys and no argsort: one for the adjacency, one
that lines each lower entry up with its transposed twin.  Top vertices
are cut into contiguous panels of bounded wedge work; each panel expands
straight into (top, endpoint) keys, reduced by one histogram or one
in-place sort (:func:`repro.sparsela.keyed_choose2_sum`).

The kernels are memory-bound, so they move as few bytes per wedge as
the values allow: the rank-space adjacency, the build's sort keys and
each panel's keys are int32 wherever their largest value fits (every
e2e shape but skewed, whose build stays int64), chosen per array and
per panel, and int64 otherwise.  Gather offsets and every reduction
stay exact int64.

:func:`vertex_butterfly_counts_priority` walks the same panels and, per
(top, endpoint) pair of multiplicity k, credits C(k, 2) to both
endpoints and k − 1 to each wedge's centre: both sides' per-vertex
counts from one pass, since the ranking is joint.  A panel too wide for
the histogram packs each wedge as ``pair << b | centre`` and sorts in
place; only the wedges whose pair repeats are unpacked and credited,
since a pair of multiplicity 1 credits nothing.

:func:`edge_butterfly_support_priority` walks them once more and
credits each wedge's k − 1 butterflies to both of its edges: per-edge
support, what the wing peels count with, from the same ranked wedges.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro._types import COUNT_DTYPE, INDEX_DTYPE, RANK_DTYPE
from repro.core.blocked import work_bounded_panels
from repro.sparsela import kernels
from repro.sparsela.kernels import choose2, keyed_choose2_sum, run_starts

__all__ = [
    "count_butterflies_priority",
    "edge_butterfly_support_priority",
    "priority_ranks",
    "priority_wedge_work",
    "vertex_butterfly_counts_priority",
    "PRIORITY_PANEL_BUDGET",
]

#: Wedges expanded per panel of top vertices.  An eighth of the blocked
#: planner's 2^18: the gathered prefixes are scattered across the whole
#: adjacency, so panels pay off only while they stay cache-resident.
#: Re-swept on int32 keys (2-vCPU x86-64 host, e2e shapes at seed 0,
#: count kernel, medians of 9 interleaved runs, two sweeps): dense 34.9
#: and 35.2 ms at 2^15 against 38.1/37.4 at 2^14 and 35.0/36.2 at 2^16,
#: github 6.9/6.5 against 7.0/6.6 and 7.7/7.3, occupations 4.3/4.5
#: against 4.3/5.3 and 4.7/5.4.  2^14 won producers (3.0/2.9 against
#: 3.6/3.2) and recordlabels (2.9/2.8 against 3.1/2.9), so no budget won
#: every shape; 2^17 was slowest on all but arxiv (a tie).
PRIORITY_PANEL_BUDGET: int = 1 << 15


def priority_ranks(graph) -> tuple[np.ndarray, np.ndarray]:
    """Priority ranks for (left, right) vertices: higher rank = higher priority.

    All m + n vertices are ordered ascending by (degree, id), with left
    vertex ``x`` holding id ``x`` and right vertex ``y`` id ``m + y``; a
    vertex's position in that order is its rank, so the highest-degree
    vertex ranks last.  Any strict total order counts correctly; degree
    order is what makes the filter effective.
    """
    csr = graph.csr
    deg = np.concatenate([csr.degrees(), csr.minor_degrees()]).astype(COUNT_DTYPE)
    n_all = deg.size
    bits = (n_all - 1).bit_length()
    # one sort of packed (degree, id) keys: unique, so no stability needed
    deg <<= bits
    deg |= np.arange(n_all, dtype=INDEX_DTYPE)
    order = np.sort(deg) & ((1 << bits) - 1)
    rank = np.empty(n_all, dtype=INDEX_DTYPE)
    rank[order] = np.arange(n_all, dtype=INDEX_DTYPE)
    return rank[: graph.n_left], rank[graph.n_left :]


def priority_wedge_work(graph) -> int:
    """Wedges the priority kernel expands: Σ_v [C(d_v, 2) − C(l_v, 2)].

    Centre v's neighbours, sorted by rank, are its l_v lower-ranked ones
    followed by the rest; the one at position i expands i wedges through
    v (the endpoints ranked below it), which sums to C(d_v, 2) − C(l_v, 2).
    One O(E) pass in CSR order with no sort: every right id exceeds every
    left id, so an edge's left endpoint outranks its right one exactly
    when its degree is strictly larger.  A row's left-top edges are read
    off a running count at ``indptr``; a column's are one weighted
    bincount (float64 sums of 1s, exact far past any degree).  The
    planner's work model for the ``priority`` strategy.
    """
    csr = graph.csr
    deg_l, deg_r = csr.degrees(), csr.minor_degrees()
    cols = csr.panel_indices(0, graph.n_left)
    left_top = np.repeat(deg_l, deg_l) > deg_r[cols]
    running = np.zeros(cols.size + 1, dtype=COUNT_DTYPE)
    np.cumsum(left_top, out=running[1:])
    lower_l = np.diff(running[csr.indptr])
    tops_r = np.bincount(cols, weights=left_top, minlength=graph.n_right)
    lower_r = deg_r - tops_r.astype(COUNT_DTYPE)
    return int(
        choose2(deg_l).sum() + choose2(deg_r).sum()
        - choose2(lower_l).sum() - choose2(lower_r).sum()
    )


#: Largest key the kernels store as int32; every rank-space array and
#: panel key space past it is int64.  Read at call time, so a test can
#: force the int64 path.
_NARROW_KEY_LIMIT: int = int(np.iinfo(RANK_DTYPE).max)


def _key_dtype(largest: int) -> type:
    """int32 if every value up to ``largest`` fits :data:`_NARROW_KEY_LIMIT`."""
    return RANK_DTYPE if largest <= _NARROW_KEY_LIMIT else INDEX_DTYPE


class _RankedWedges:
    """The rank-space wedge runs of a graph, built once per kernel call.

    All m + n vertices are relabelled by rank and given a symmetric
    adjacency with every list ascending.  Lower entries (u, v < u) lead
    each list, so they come out grouped by top vertex u; each is one
    *run* — the prefix of adj(v) below u, exactly the endpoints w < u of
    the wedges (u, v, w).  Run e is centred on ``centre[e]``, holds the
    wedges ``ends[e]:ends[e + 1]`` (counted over all runs), and the
    endpoint of its wedge i is ``adj[shift[e] + i]``.  Top u owns runs
    ``first[u]:first[u + 1]``.

    The adjacency comes from one in-place sort of ``owner << b |
    neighbour`` keys, ``b`` the bit length of n_all − 1, masked back to
    the neighbours.  A run's length is the position of its lower entry's
    transposed twin in adj(v).  The twins (upper entries) come out in
    (centre, top) order; one in-place sort of their tops with each
    twin's index packed below (``top << b | i``, ``b`` now the bit
    length of n_up − 1, then ``& (2^b − 1)``) puts them in the lower
    entries' (top, centre) order.  Shift and mask, not multiply and
    ``%``: numpy's integer remainder costs several times a pass.

    ``adj`` and ``centre`` are int32 when the packed adjacency keys fit
    :data:`_NARROW_KEY_LIMIT`, as are those keys; the twin keys are
    int32 by the same test on their own width.  ``shift``, ``ends`` and
    ``first`` index the wedges and stay int64.  Temporaries are freed,
    or overwritten in place, as soon as they are consumed; five
    E-length arrays are kept.
    """

    def __init__(self, graph, rank_l, rank_r) -> None:
        csr = graph.csr
        n_all = graph.n_left + graph.n_right
        nnz = graph.n_edges
        bits = (n_all - 1).bit_length()
        ids = _key_dtype(n_all << bits)
        rank_l = rank_l.astype(ids, copy=False)
        rank_r = rank_r.astype(ids, copy=False)
        deg_l = csr.degrees()
        deg = np.empty(n_all, dtype=INDEX_DTYPE)  # rank-space degrees
        deg[rank_l] = deg_l
        deg[rank_r] = csr.minor_degrees()
        # every edge as (rank of left endpoint, rank of right endpoint)
        a = np.repeat(rank_l, deg_l)
        del deg_l
        b = rank_r[csr.panel_indices(0, graph.n_left)]
        # one sort of packed (owner, neighbour) keys, both directions
        keys = np.empty(2 * nnz, dtype=ids)
        np.left_shift(a, bits, out=keys[:nnz])
        keys[:nnz] |= b
        np.left_shift(b, bits, out=keys[nnz:])
        keys[nnz:] |= a
        del a, b
        keys.sort()
        keys &= ids((1 << bits) - 1)
        adj = keys
        offsets = np.zeros(n_all + 1, dtype=INDEX_DTYPE)
        np.cumsum(deg, out=offsets[1:])
        owner = np.repeat(np.arange(n_all, dtype=ids), deg)
        del deg
        # the transposed upper entry (v, u) of lower entry (u, v) sits at
        # pos_v(u) within adj(v), so the run of (u, v) is adj(v)[:pos_v(u)]
        is_lower = adj < owner
        first = np.zeros(n_all + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(owner[is_lower], minlength=n_all), out=first[1:])
        del owner
        centre = adj[is_lower]
        upper = np.flatnonzero(~is_lower)
        del is_lower
        # the upper twins, (centre, top) order, sorted into (top, centre)
        n_up = upper.size
        bits = (n_up - 1).bit_length()
        twin_ids = _key_dtype(n_all << bits)
        twin = adj[upper].astype(twin_ids, copy=False)
        twin <<= bits
        twin |= np.arange(n_up, dtype=twin_ids)
        twin.sort()
        twin &= twin_ids((1 << bits) - 1)
        length = upper[twin]  # the twins' positions, for now
        del twin, upper
        shift = offsets[centre]  # run starts in adj
        length -= shift
        ends = np.zeros(centre.size + 1, dtype=INDEX_DTYPE)
        np.cumsum(length, out=ends[1:])
        del length
        shift -= ends[:-1]
        self.n_all = n_all
        self.adj, self.centre, self.offsets = adj, centre, offsets
        self.shift, self.ends, self.first = shift, ends, first
        self.work = ends[first[1:]] - ends[first[:-1]]  # wedges per top
        self._ramp = np.arange(0, dtype=INDEX_DTYPE)

    def panels(self) -> list[tuple[int, int]]:
        """Contiguous top panels ``[lo, hi)`` of bounded wedge work.

        At most :data:`PRIORITY_PANEL_BUDGET` wedges each (a heavier top
        gets its own panel); panels with no wedges are dropped.
        """
        first, ends = self.first, self.ends
        return [
            (lo, hi)
            for lo, hi in work_bounded_panels(self.work, PRIORITY_PANEL_BUDGET)
            if ends[first[hi]] > ends[first[lo]]
        ]

    def gather(self, lo: int, hi: int) -> np.ndarray:
        """The ``adj`` position of each wedge (u, v, w) of tops ``[lo, hi)``:
        the entry (v, w), in top order."""
        e_lo, e_hi = self.first[lo], self.first[hi]
        w_lo = self.ends[e_lo]
        wedges = int(self.ends[e_hi] - w_lo)
        if self._ramp.size < wedges:  # kept for the panels that follow
            self._ramp = np.arange(wedges, dtype=INDEX_DTYPE)
        gather = np.repeat(self.shift[e_lo:e_hi] + w_lo, self._lengths(e_lo, e_hi))
        gather += self._ramp[:wedges]
        return gather

    def keys(self, lo: int, hi: int, bits: int = 0, gather=None) -> np.ndarray:
        """The wedges of tops ``[lo, hi)`` as keys ``(u − lo)·hi + w``.

        Top u and endpoint w < hi of each wedge, in top order; a fresh
        array the caller may consume, int32 when the key space fits in
        it and int64 otherwise.  With ``bits`` each key is shifted up by
        ``bits`` and the wedge's centre packed below it.  ``gather``:
        :meth:`gather` of the same tops, if the caller holds it.
        """
        e_lo, e_hi = self.first[lo], self.first[hi]
        if gather is None:
            gather = self.gather(lo, hi)
        wedges = gather.size
        dtype = _key_dtype(((hi - lo) * hi) << bits)
        # every index is in range: "wrap" only skips the bounds check
        # (~25% off the gather on the dense e2e shape)
        keys = np.take(self.adj, gather, mode="wrap")
        del gather
        keys = keys.astype(dtype, copy=False)  # widened before any shift
        base = np.arange(0, (hi - lo) * hi, hi, dtype=dtype)
        if bits:  # each run's packed (top, centre) base, one repeat
            keys <<= bits
            base <<= bits
            runs = np.repeat(base, np.diff(self.first[lo : hi + 1]))
            runs |= self.centre[e_lo:e_hi]
            keys += np.repeat(runs, self._lengths(e_lo, e_hi))
        elif hi - lo > 1:  # a lone top's keys are its endpoints
            keys += np.repeat(base, self.work[lo:hi])
        if obs._enabled:
            obs.inc("priority.wedges", wedges)
        return keys

    def run_sums(self, lo: int, hi: int, per_wedge: np.ndarray):
        """``(busy, sums)``: which runs of tops ``[lo, hi)`` hold a wedge,
        and ``per_wedge`` (in :meth:`keys` order) summed over each of those."""
        e_lo, e_hi = self.first[lo], self.first[hi]
        busy = self._lengths(e_lo, e_hi) > 0
        starts = self.ends[e_lo:e_hi][busy] - self.ends[e_lo]
        return busy, np.add.reduceat(per_wedge, starts)

    def centres(self, lo: int, hi: int) -> np.ndarray:
        """The centre of each wedge :meth:`keys` returns for ``[lo, hi)``."""
        e_lo, e_hi = self.first[lo], self.first[hi]
        return np.repeat(self.centre[e_lo:e_hi], self._lengths(e_lo, e_hi))

    def _lengths(self, e_lo: int, e_hi: int) -> np.ndarray:
        """Wedges in each of runs ``[e_lo, e_hi)``."""
        return np.diff(self.ends[e_lo : e_hi + 1])


def count_butterflies_priority(graph) -> int:
    """Exact Ξ_G, each butterfly counted once from its top-ranked vertex."""
    if graph.n_edges == 0:
        return 0
    wedges = _RankedWedges(graph, *priority_ranks(graph))
    total = 0
    for lo, hi in wedges.panels():
        total += int(keyed_choose2_sum(wedges.keys(lo, hi), (hi - lo) * hi)[0])
    return total


#: Largest packed (pair, centre) key the per-vertex reduction sorts
#: directly; a panel whose packed keys would pass it sorts by argsort
#: instead.  Read at call time, so a test can force that path.
_PACKED_KEY_LIMIT: int = int(np.iinfo(COUNT_DTYPE).max)


def _dense_cap(n_wedges: int) -> int:
    """Largest panel key space the per-vertex and per-edge passes histogram."""
    return min(kernels.DEFAULT_KEYSPACE_CAP, max(n_wedges // 2, 1 << 16))


def _repeated(pairs: np.ndarray) -> np.ndarray:
    """Mask of the sorted ``pairs`` equal to a neighbour: the wedges of the
    pairs of multiplicity >= 2, as a pair seen once credits nothing."""
    repeats = pairs[1:] == pairs[:-1]
    keep = np.zeros(pairs.size, dtype=bool)
    keep[1:] = repeats
    keep[:-1] |= repeats
    return keep


def _credit_panel(credit, wedges: _RankedWedges, lo: int, hi: int) -> None:
    """Add the butterflies of tops ``[lo, hi)`` to the rank-space ``credit``.

    Each (top u, endpoint w) pair of multiplicity k closes C(k, 2)
    butterflies, all holding u and w, and each of its k wedge centres sits
    in k − 1 of them.  All sums are int64.  A key space of at most half
    the wedges (or 2^16 keys) is histogrammed densely, with no sort.
    Half beat both 4x and 1x the wedges on the e2e shapes (2-vCPU x86-64
    host): the dense path also pays C(k, 2) and two sums over the whole
    key space.  Its centre credits are summed per run (one centre each)
    and scattered once per run, not once per wedge.  Its keys are
    widened to int64 once: bincount and numpy's gathers cast narrower
    indices to intp on every call.

    Otherwise each wedge is packed as ``pair << b | centre``, with ``b``
    the bit length of ``hi`` (every centre lies below its top), in int32
    only if ``keyspace << b`` fits it and widened before the shift
    otherwise; the keys are sorted in place.  Past
    :data:`_PACKED_KEY_LIMIT` the pair keys are argsorted with their
    centres instead.  A pair of multiplicity 1 credits nothing, so only
    the wedges whose pair repeats a sorted neighbour's are kept and
    unpacked: 12–49% of the sorted wedges on the seed-0 e2e shapes.
    """
    n_pivots, n_wedges = hi - lo, int(wedges.work[lo:hi].sum(dtype=COUNT_DTYPE))
    keyspace = n_pivots * hi
    if keyspace <= _dense_cap(n_wedges):
        # widened once: bincount and the gather below index with them
        keys = wedges.keys(lo, hi).astype(INDEX_DTYPE, copy=False)
        mult = np.bincount(keys, minlength=keyspace)
        per_wedge = np.take(mult, keys, mode="wrap")
        del keys
        pairs = choose2(mult).reshape(n_pivots, hi)
        credit[lo:hi] += pairs.sum(axis=1)
        credit[:hi] += pairs.sum(axis=0)
        per_wedge -= 1
        # unsorted, the wedges still come in runs of one centre: sum each
        # run, then scatter once per run
        busy, sums = wedges.run_sums(lo, hi, per_wedge)
        centres = wedges.centre[wedges.first[lo] : wedges.first[hi]]
        np.add.at(credit, centres[busy], sums)
        return
    bits = hi.bit_length()  # every centre lies below hi
    packed = keyspace << bits <= _PACKED_KEY_LIMIT
    if packed:
        keys = wedges.keys(lo, hi, bits)
        keys.sort()
        keep = _repeated(keys >> bits)
    else:
        keys, centres = wedges.keys(lo, hi), wedges.centres(lo, hi)
        order = np.argsort(keys)
        keys, centres = keys[order], centres[order]
        del order
        keep = _repeated(keys)
    keys = keys.compress(keep)
    if keys.size == 0:
        return
    if packed:
        centres = keys & ((1 << bits) - 1)
        keys >>= bits
    else:
        centres = centres.compress(keep)
    del keep
    group_start = run_starts(keys)
    mult = np.diff(np.append(group_start, keys.size))
    top, end = np.divmod(keys[group_start], hi)
    del keys, group_start
    pairs = choose2(mult)
    top += lo
    np.add.at(credit, top, pairs)
    np.add.at(credit, end, pairs)
    np.add.at(credit, centres, np.repeat(mult - 1, mult))


def vertex_butterfly_counts_priority(graph) -> tuple[np.ndarray, np.ndarray]:
    """Butterflies containing each vertex, both sides from one ranked pass.

    Shi & Shun's per-vertex count over ranked wedges (arXiv:1907.08607):
    every butterfly is found once, from its top-ranked vertex u and the
    opposite vertex w, and credited to u, w and both wedge centres.
    Identical output to
    :func:`~repro.core.local_counts.vertex_butterfly_counts` on each side,
    at the priority kernel's wedge cost instead of two fixed-side passes.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        int64 vectors of length ``n_left`` and ``n_right``.
    """
    if graph.n_edges == 0:
        return (
            np.zeros(graph.n_left, dtype=COUNT_DTYPE),
            np.zeros(graph.n_right, dtype=COUNT_DTYPE),
        )
    rank_l, rank_r = priority_ranks(graph)
    wedges = _RankedWedges(graph, rank_l, rank_r)
    credit = np.zeros(wedges.n_all, dtype=COUNT_DTYPE)
    for lo, hi in wedges.panels():
        _credit_panel(credit, wedges, lo, hi)
    return credit[rank_l], credit[rank_r]


def _edge_credit_panel(credit, runs, wedges: _RankedWedges, lo: int, hi: int) -> None:
    """Credit the butterflies of tops ``[lo, hi)`` to their edges.

    A wedge (u, v, w) of a pair of multiplicity k lies in k − 1 of its
    butterflies and credits that to both of its edges, in int64: (u, v),
    its run's lower entry, summed per run into ``runs``, and (v, w)
    through its gather position into the ``adj``-space ``credit``.  The
    multiplicities come from a histogram, as in :func:`_credit_panel`,
    or from an in-place sort with each wedge's panel index packed below
    its pair (argsorted past :data:`_PACKED_KEY_LIMIT`).
    """
    gather = wedges.gather(lo, hi)
    n_wedges, keyspace = gather.size, (hi - lo) * hi
    keys = wedges.keys(lo, hi, gather=gather)
    if keyspace <= _dense_cap(n_wedges):
        keys = keys.astype(INDEX_DTYPE, copy=False)
        per_wedge = np.take(np.bincount(keys, minlength=keyspace), keys, mode="wrap")
        per_wedge -= 1
    else:
        bits = (n_wedges - 1).bit_length()  # every panel index fits below
        if keyspace << bits <= _PACKED_KEY_LIMIT:
            keys = keys.astype(_key_dtype(keyspace << bits), copy=False)
            keys <<= bits
            keys |= wedges._ramp[:n_wedges]
            keys.sort()
            index = keys & ((1 << bits) - 1)
            keys >>= bits
        else:
            index = np.argsort(keys)
            keys = keys[index]
        keep = _repeated(keys)
        keys, index = keys.compress(keep), index.compress(keep)
        del keep
        per_wedge = np.zeros(n_wedges, dtype=COUNT_DTYPE)
        if keys.size:
            mult = np.diff(np.append(run_starts(keys), keys.size))
            per_wedge[index] = np.repeat(mult - 1, mult)
        del keys, index
    np.add.at(credit, gather, per_wedge)
    del gather
    busy, sums = wedges.run_sums(lo, hi, per_wedge)
    runs[wedges.first[lo] : wedges.first[hi]][busy] = sums


def edge_butterfly_support_priority(graph) -> np.ndarray:
    """Butterflies containing each edge, int64, parallel to ``graph.csr``.

    Shi & Shun's per-edge count over ranked wedges (arXiv:1907.08607):
    every butterfly is found once, from its top-ranked vertex, and
    credited to its four edges.  Identical output to
    :func:`~repro.core.local_counts.edge_butterfly_support`, at the
    priority kernel's wedge cost.  An edge holds two ``adj`` positions:
    its lower entry, which leads its top's list, and the upper twin that
    ends the entry's run.  Both credits are added onto the lower entry,
    and the argsort of the CSR entries' (higher, lower rank) keys, which
    lists them in the lower entries' order, folds those onto CSR order.
    """
    nnz = graph.n_edges
    support = np.zeros(nnz, dtype=COUNT_DTYPE)
    if nnz == 0:
        return support
    rank_l, rank_r = priority_ranks(graph)
    wedges = _RankedWedges(graph, rank_l, rank_r)
    credit = np.zeros(2 * nnz, dtype=COUNT_DTYPE)
    runs = np.zeros(nnz, dtype=COUNT_DTYPE)
    for lo, hi in wedges.panels():
        _edge_credit_panel(credit, runs, wedges, lo, hi)
    first = wedges.first
    at = np.repeat(wedges.offsets[:-1] - first[:-1], np.diff(first))
    at += np.arange(nnz, dtype=INDEX_DTYPE)
    runs += credit[at]
    np.add(wedges.shift, wedges.ends[1:], out=at)  # the upper twins
    runs += credit[at]
    del credit, at
    a = np.repeat(rank_l, graph.csr.degrees())
    b = rank_r[graph.csr.panel_indices(0, graph.n_left)]
    keys = np.maximum(a, b)
    keys <<= (wedges.n_all - 1).bit_length()
    keys |= np.minimum(a, b)
    support[np.argsort(keys)] = runs
    return support
