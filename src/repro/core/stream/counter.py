"""Batched incremental butterfly maintenance — the streaming tier's core.

The per-edge dynamic counter (:mod:`repro.core.stream.dynamic`) applies
the paper's eq. 23 delta one Python-set intersection at a time; this
module applies the *same* closed form to a whole batch at once with the
repo's vectorised wedge machinery.

Algorithm (one batch phase; each pass's probe credits both sides)
-----------------------------------------------------------------
Let ``A`` be the phase's edge set, ``S`` the graph without ``A`` and
``B = S ∪ A`` the graph with it.  One side holds the *pivots*, the
other the *mids*.  For a pivot pair ``{u, w}`` let ``X`` be its common
mids in ``S`` (``|X| = b``) and ``Y`` the common mids the batch adds
(``|Y| = d``).  The pair's butterfly contribution moves from
``C(b, 2)`` to ``C(b + d, 2)`` (eq. 18), and every butterfly has
exactly one pivot pair, so per pair:

- ``u`` and ``w`` each gain ``ΔC2 = b·d + C(d, 2)``;
- each ``x ∈ X`` gains ``d`` and each ``y ∈ Y`` gains ``b + d − 1``.

Both sides' deltas therefore come from one pass of three vectorised
steps, all sized by the batch's wedge footprint rather than the graph:

1. **Delta-wedge enumeration (Y)** — for each ``(p, q) ∈ A`` emit the
   rows ``({p, w}, q)`` for ``w ∈ N_B(q) \\ {p}`` (one ``gather_slices``
   over the big graph's mid-major view).  A wedge whose two legs are
   both batch edges is met from both pivots; only the copy emitted from
   the lower pivot is kept, found by one membership test against the
   sorted batch keys.  The kept rows are exactly the ``(pair, y)``
   rows; grouped by canonical pair key ``min·n + max`` they give ``d``.
2. **Baseline probe (X)** — gather the *smaller* ``S``-adjacency of
   each touched pair (its *probe* end) and test every mid against the
   *other* end's row in ``S``.  Each hit is one ``(pair, x)`` row, so
   ``b`` is the per-pair hit count.  Two paths, each run over blocks
   of about ``_PROBE_BLOCK`` entries:

   - *bitmap rows* — an ``other`` row queried at least as often as its
     degree (Σ of its pairs' probe lengths ≥ ``deg_S``) gets one
     bit-packed row of ``⌈n_mid / 8⌉`` bytes in a ``uint8`` bitmap set
     from its ``S`` row; each of its entries is then one byte gather and
     one shift.  The bitmap is capped at 8 bytes per probe entry (the
     int64 key the search would build), the most-queried rows first;
   - *sorted search* — the remaining entries' edge keys, packed with
     their pair index and sorted (argsorted past the int64 key space),
     are binary-searched against ``S``'s sorted edge-key array.

   Work is ``Σ deg_S(r)`` to set the bitmap rows ``r`` — no more than
   their queries — plus one gather per bitmap entry and ``O(k log |E|)``
   for the ``k`` searched entries; ``Σ min(deg u, deg w)`` entries in
   all.

   The probe's entry- and vertex-sized arrays live in the counter's
   workspace (:class:`_Scratch`): a few buffers kept across phases and
   batches, each replaced at the exact size asked for when too small.
   The blocks bound the entry-sized ones, so the workspace holds about
   the bitmap plus one block's buffers.  Allocating them per phase
   instead, glibc handed the freed pages back to the OS after each
   phase and the next phase faulted them in again.
3. **Closed-form update** — scatter ``ΔC2`` to both pair endpoints,
   ``d`` to every hit mid and ``b + d − 1`` to every emitted mid; ``ΔΞ``
   is ``Σ ΔC2``.

Each edge picks its own pivot side (Wang et al.'s "iterate over the
cheaper side", taken per vertex): a batch edge ``(u, v)`` costs
``deg_B(v)`` delta wedges as a left pivot's leg and ``deg_B(u)`` as a
right one's.  The phase gives the left pivot to the edges with
``deg_B(v) ≤ deg_B(u)`` (group G1) and the right pivot to the rest (G2)
when that saves at least :data:`_SPLIT_MIN_WEDGES` wedges over the
cheaper whole side; otherwise one pass pivots every edge on that side.
Both single-side choices give bit-identical results; the conformance
tests force each, and force the split.

Split phase.  Write ``Ξ(·)`` for the count.  With ``B = S ∪ G1 ∪ G2``,
``Ξ(B) − Ξ(S) = [Ξ(B) − Ξ(B − G1)] + [Ξ(S + G2) − Ξ(S)]``: G1's pass is
the three steps above with small graph ``B − G1`` and big graph ``B``,
G2's with ``S`` and ``S + G2``, and their per-vertex deltas add.  Only
``S`` and ``B`` exist as states (one splice per phase), so:

- G1's probe reads ``B``'s pivot-major view and keys.  Each pair's
  common mids there are ``X`` plus its ``d`` rows ``Y``, so
  ``b = hits − d``, and each ``y`` is credited ``b − 1`` on top of the
  ``d`` its hit row gives it;
- G2's enumeration reads ``B``'s mid-major view and drops every wedge
  whose other leg is in G1 (not in ``S + G2``);
- one ``searchsorted`` of the legs against the phase's keys, with a
  G1 mask at the found positions, tells both filters which group a
  batch leg is in.

Intra-batch interactions — edges of the same batch closing butterflies
with each other — are exact by construction (enumeration runs against
``B``).  On a split phase a butterfly holding edges of both groups is
G1's: G1's term counts every butterfly of ``B`` with a G1 edge, G2's
those with a G2 edge and none of G1.

Deletions reuse the same small-graph→big-graph delta with the roles
reversed (``S`` is the post-delete graph, ``B`` the current one) and the
result subtracted.  Within one :meth:`StreamingButterflyCounter.apply`
call deletes are applied before inserts (the documented batch
semantics: an edge listed in both ends up present).

State is three arrays kept in lock-step: the sorted int64 edge keys
(``u·n_right + v``; O(1) ``n_edges``, O(log E) membership and the
probe's search array) and the CSR and CSC views themselves.  A phase
splices all three instead of rebuilding them.  Because the keys are
row-major sorted, the one ``searchsorted`` that tells which requested
edits apply also gives the changed keys' positions in the keys and in
the CSR; the CSC positions come from one search inside the touched
columns, ``O(Σ deg)`` of those columns, which the delta-wedge
enumeration pays anyway.  Each array then takes one
``np.insert``/``np.delete`` copy, and each ``indptr`` offset shifts by
the number of changed edges in the rows (columns) before it: no sort
and no division over the whole graph.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro._types import BITMAP_DTYPE, COUNT_DTYPE, INDEX_DTYPE
from repro.engine.plan import STREAM_STRATEGIES
from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela import PatternCOO, PatternCSC, PatternCSR
from repro.sparsela.coo import integral_ids
from repro.sparsela.kernels import choose2, gather_slices

__all__ = [
    "StreamingButterflyCounter",
    "batch_edges",
]


def batch_edges(edges, n_left: int, n_right: int) -> np.ndarray:
    """One side of a stream batch as a checked int64 ``(e, 2)`` array.

    The one id check :meth:`StreamingButterflyCounter.apply` and the
    engine's ``stream_apply`` planner share.  Ids pass the graph
    constructor's check (:func:`integral_ids`), so a fractional,
    non-finite, bool or text id raises ``ValueError`` naming its row
    instead of being truncated; an id outside ``[0, n)`` of its side (a
    negative one would otherwise wrap) raises ``ValueError`` naming the
    side, the range and the row.  O(batch).
    """
    arr = edges if isinstance(edges, np.ndarray) else np.asarray(list(edges))
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edge batch must have shape (e, 2)")
    arr = integral_ids(arr).astype(np.int64, copy=False)
    for column, side, n in ((0, "left", n_left), (1, "right", n_right)):
        ids = arr[:, column]
        if ids.min() < 0 or ids.max() >= n:
            row = int(np.flatnonzero((ids < 0) | (ids >= n))[0])
            raise ValueError(
                f"{side} vertex {ids[row]} out of range [0, {n}) in row {row}"
            )
    return arr


def _vertex_id(vertex, n: int, side: str) -> int:
    """``vertex`` as an int id in ``[0, n)`` of ``side``.

    The scalar twin of :func:`batch_edges`: integers and integral-valued
    floats pass; a fractional or non-finite float, a bool or anything
    else raises ``ValueError``, and an id outside ``[0, n)`` raises
    ``IndexError`` (no negative indexing from the end).
    """
    if isinstance(vertex, (float, np.floating)) and float(vertex).is_integer():
        vertex = int(vertex)
    if isinstance(vertex, (bool, np.bool_)) or not isinstance(
        vertex, (int, np.integer)
    ):
        raise ValueError(f"{side} vertex id must be an integer, got {vertex!r}")
    if not 0 <= vertex < n:
        raise IndexError(f"{side} vertex {vertex} out of range [0, {n})")
    return int(vertex)


def _located(values: np.ndarray, sorted_keys: np.ndarray):
    """``(pos, present)``: each of ``values``' ``searchsorted`` position in
    the sorted unique ``sorted_keys``, and whether it is there."""
    pos = np.searchsorted(sorted_keys, values)
    if sorted_keys.size == 0:
        return pos, np.zeros(values.shape, dtype=bool)
    return pos, sorted_keys[np.minimum(pos, sorted_keys.size - 1)] == values


def _in_sorted(values: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean membership of ``values`` in the sorted unique ``sorted_keys``."""
    return _located(values, sorted_keys)[1]


def _column_positions(csc, rows: np.ndarray, cols: np.ndarray):
    """The edges ``(rows[i], cols[i])`` column-major, with their entries
    in ``csc.indices``.

    The edges arrive row-major (the batch keys' order), so one stable
    sort by column makes them column-major: the order an insert hands
    them over in.  A present edge's entry is its own, an absent one's the
    entry it would be inserted before.  The touched columns' slices are
    gathered and packed as ``slot·n_left + row`` (sorted: slots ascend,
    each slice is sorted), so one ``searchsorted`` answers every edge in
    O(Σ deg of the touched columns).  Returns ``(rows, cols, entries)``.
    """
    order = np.argsort(cols, kind="stable")
    rows, cols = rows[order], cols[order]
    first = np.empty(cols.size, dtype=bool)
    first[0] = True
    np.not_equal(cols[1:], cols[:-1], out=first[1:])
    touched = cols[first]
    slot = np.cumsum(first, dtype=INDEX_DTYPE) - 1
    lengths = csc.indptr[touched + 1] - csc.indptr[touched]
    width = np.int64(max(csc.shape[0], 1))
    packed = np.repeat(np.arange(touched.size, dtype=INDEX_DTYPE) * width, lengths)
    packed += gather_slices(csc.indptr, csc.indices, touched)
    shift = csc.indptr[touched] - (np.cumsum(lengths, dtype=INDEX_DTYPE) - lengths)
    entries = np.searchsorted(packed, slot * width + rows) + shift[slot]
    return rows, cols, entries


def _shift_indptr(indptr: np.ndarray, major: np.ndarray, sign: int) -> np.ndarray:
    """``indptr`` after ``sign`` × one entry per id in the sorted ``major``.

    Offset ``i`` moves by the number of ids below ``i``: a step function
    of ``major.size + 1`` steps, built by one ``np.repeat`` (a cumsum
    over all ``V + 1`` offsets costs several times more).
    """
    steps = np.diff(np.concatenate(([-1], major, [indptr.size - 1])))
    out = np.repeat(
        np.arange(0, sign * (major.size + 1), sign, dtype=INDEX_DTYPE), steps
    )
    out += indptr
    return out


def _leg_keys(pivots, mids, n_side: int, n_mid: int, pairs_on_left: bool):
    """Left-major edge keys (``left · n_right + right``) of (pivot, mid) legs."""
    if pairs_on_left:
        keys = pivots * np.int64(n_mid)
        keys += mids
    else:
        keys = mids * np.int64(n_side)
        keys += pivots
    return keys


class _Scratch:
    """One counter's probe workspace, kept across phases and batches.

    The probe writes its entry- and vertex-sized arrays into a few named
    flat buffers instead of allocating them per phase: glibc hands a
    phase's freed temporaries back to the OS, and the next phase faults
    them in again.  A buffer too small for a request is replaced at the
    exact size asked for (never doubled), so each holds the largest need
    of its role so far; a request gets a prefix view, valid until the
    next request for the same name.  Not thread-safe, like the counter.

    A :meth:`filled` buffer holds one value between probes: the probe
    writes it only through :meth:`scatter`, which records where, and
    :meth:`clean` puts just those items back.  The probe cleans in a
    ``finally``, so one that raises leaves the buffers clean too.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._fills: dict[str, int] = {}
        self._scattered: list[tuple[str, np.ndarray]] = []

    @property
    def nbytes(self) -> int:
        """Bytes the workspace holds."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def _grown(self, name: str, size: int, make) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            self._buffers.pop(name, None)  # drop the old one first
            buf = self._buffers[name] = make(size)
        return buf[:size]

    def take(self, name: str, size: int, dtype) -> np.ndarray:
        """``size`` uninitialised items of buffer ``name``."""
        return self._grown(name, size, lambda n: np.empty(n, dtype=dtype))

    def ramp(self, size: int) -> np.ndarray:
        """``np.arange(size)``: a prefix of one kept, read-only ramp."""

        def make(n):
            ramp = np.arange(n, dtype=INDEX_DTYPE)
            ramp.flags.writeable = False
            return ramp

        return self._grown("ramp", size, make)

    def filled(self, name: str, size: int, dtype, fill: int) -> np.ndarray:
        """``size`` items of buffer ``name``, every one equal to ``fill``."""
        self._fills[name] = fill
        return self._grown(name, size, lambda n: np.full(n, fill, dtype=dtype))

    def scatter(self, name: str, at: np.ndarray, values) -> None:
        """``buffer[at] = values`` on a :meth:`filled` buffer, undone by
        the next :meth:`clean`."""
        self._scattered.append((name, at))
        self._buffers[name][at] = values

    def clean(self) -> None:
        """Put every item :meth:`scatter` wrote back to its fill."""
        while self._scattered:
            name, at = self._scattered.pop()
            self._buffers[name][at] = self._fills[name]


def _gather(ws: _Scratch, name: str, indptr, indices, ids) -> np.ndarray:
    """:func:`gather_slices` into the scratch buffer ``name``.

    The same passes (one ``repeat`` of the slice starts, one add of the
    position ramp, one gather), but the ramp is the kept one and the
    gather writes into the buffer: only the index array is allocated.
    """
    starts = indptr[ids]
    lengths = indptr[ids + 1] - starts
    total = int(lengths.sum(dtype=INDEX_DTYPE))
    out = ws.take(name, total, INDEX_DTYPE)
    if total == 0:
        return out
    offsets = np.zeros(ids.size, dtype=INDEX_DTYPE)
    np.cumsum(lengths[:-1], out=offsets[1:])
    src = np.repeat(starts - offsets, lengths)
    src += ws.ramp(total)
    # the indices are in range: "clip" keeps take from buffering its out
    np.take(indices, src, out=out, mode="clip")
    if obs._enabled:
        obs.inc("kernels.gather.calls")
        obs.inc("kernels.gather.items", total)
        obs.inc("kernels.gather.bytes", int(out.nbytes + src.nbytes))
    return out


#: A row the probe tests (a pair's ``other`` endpoint) gets a bitmap row
#: when its queries — Σ ``cnt`` over the pairs testing it — reach this
#: multiple of its degree, the bits its bitmap row costs to set.  Read at
#: call time, so a test can force a bitmap row for every tested row (0,
#: with the byte cap below lifted) or for none (the cap at 0).
_BITMAP_QUERY_RATIO: float = 1.0

#: Bitmap bytes a phase may spend per probe entry: 8, the int64 edge key
#: the sorted search would build for that entry, so the bitmap never
#: raises the probe's peak memory.  Past the cap the most-queried rows
#: keep their bitmap rows.  Read at call time (see above).
_BITMAP_BYTES_PER_ENTRY: int = 8

#: Largest packed (edge key, pair) value the sorted search sorts
#: directly; a wider key space argsorts the edge keys instead.  Read at
#: call time, so a test can force that path.
_PACKED_KEY_LIMIT: int = int(np.iinfo(np.int64).max)


#: Probe entries handled per block: the probe's entry-sized buffers and
#: temporaries stay near ``_PROBE_BLOCK`` items (128 KiB of int64)
#: however large the phase.  Larger blocks were no faster on the e2e
#: stream and raised its peak RSS.  Read at call time, so a test can
#: force many blocks.
_PROBE_BLOCK: int = 1 << 14


def _blocks(counts: np.ndarray) -> list[tuple[int, int]]:
    """``[lo, hi)`` runs of consecutive items holding ``counts`` entries.

    A run starts at every item whose first entry crosses a multiple of
    :data:`_PROBE_BLOCK`, so it holds fewer than ``_PROBE_BLOCK`` entries
    plus its last item's.  No entries, no runs.
    """
    total = int(counts.sum(dtype=INDEX_DTYPE))
    if total == 0:
        return []
    if total <= _PROBE_BLOCK:
        return [(0, counts.size)]
    firsts = np.cumsum(counts, dtype=INDEX_DTYPE) - counts
    cuts = np.searchsorted(firsts, np.arange(0, total, _PROBE_BLOCK))
    # (a few dozen cuts; np.unique would import numpy.ma, ~26 ms once)
    bounds = sorted(set(cuts.tolist())) + [counts.size]
    return list(zip(bounds[:-1], bounds[1:]))


def _row_bitmap(ws: _Scratch, small_pm, rows: np.ndarray, row_bytes: int):
    """Bit-packed adjacency of the sorted ``rows``, ``row_bytes`` per row.

    Row ``i`` spans bytes ``[i·row_bytes, (i+1)·row_bytes)``; bit
    ``mid & 7`` of byte ``mid >> 3`` is set when ``(rows[i], mid)`` is an
    edge.  Rows are ascending and each row's mids sorted, so a block of
    rows' byte offsets arrive sorted and one ``bitwise_or.reduceat``
    sets them.  The bitmap is the workspace's, set through
    :meth:`_Scratch.scatter`: the caller cleans it.
    """
    bitmap = ws.filled("bitmap", rows.size * row_bytes, BITMAP_DTYPE, 0)
    lengths = small_pm.indptr[rows + 1] - small_pm.indptr[rows]
    for lo, hi in _blocks(lengths):
        mids = _gather(ws, "mids", small_pm.indptr, small_pm.indices, rows[lo:hi])
        if mids.size == 0:
            continue
        bits = ws.take("low", mids.size, BITMAP_DTYPE)
        np.bitwise_and(mids, 7, out=bits, casting="unsafe")
        np.left_shift(BITMAP_DTYPE(1), bits, out=bits)
        byte = np.repeat(ws.ramp(hi)[lo:] * row_bytes, lengths[lo:hi])
        byte += np.right_shift(mids, 3, out=mids)
        first = ws.take("bit", mids.size, BITMAP_DTYPE).view(bool)
        first[0] = True
        np.not_equal(byte[1:], byte[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        ws.scatter("bitmap", byte[starts], np.bitwise_or.reduceat(bits, starts))
    return bitmap


def _bitmap_rows(ws: _Scratch, small_pm, other, cnt, row_bytes: int):
    """The phase's bitmap rows (ascending) and each pair's slot among them.

    A row earns a bitmap row when its queries reach
    :data:`_BITMAP_QUERY_RATIO` × its degree; past the byte cap the
    most-queried rows win.  A pair whose ``other`` row has none gets
    slot −1.  The slots are numbered in the workspace's ``slot`` buffer
    through :meth:`_Scratch.scatter`: the caller cleans it.
    """
    budget = _BITMAP_BYTES_PER_ENTRY * int(cnt.sum(dtype=COUNT_DTYPE))
    max_rows = budget // row_bytes
    if max_rows == 0 or other.size == 0:
        return other[:0], np.full(other.size, -1, dtype=INDEX_DTYPE)
    queries = np.bincount(other, weights=cnt)
    n = queries.size
    # queries ≥ ratio·degree, and queries > 0: queries are whole numbers,
    # so both are one test against max(ratio·degree, 0.5)
    need = ws.take("need", n, np.float64)
    np.subtract(small_pm.indptr[1 : n + 1], small_pm.indptr[:n], out=need)
    need *= _BITMAP_QUERY_RATIO
    np.maximum(need, 0.5, out=need)
    earns = ws.take("bit", n, BITMAP_DTYPE).view(bool)
    rows = np.flatnonzero(np.greater_equal(queries, need, out=earns))
    if rows.size > max_rows:
        top = np.argsort(-queries[rows], kind="stable")[:max_rows]
        rows = np.sort(rows[top])
    slot = ws.filled("slot", n, INDEX_DTYPE, -1)
    ws.scatter("slot", rows, ws.ramp(rows.size))
    return rows, slot[other]


def _bitmap_hits(ws: _Scratch, small_pm, bitmap, pairs, probe, byte0, cnt):
    """Hit rows ``(pair, mid)`` of one block of bitmap-probed pairs.

    Pair ``pairs[i]`` probes the ``cnt[i]`` mids of row ``probe[i]``
    against its bitmap row, which starts at byte ``byte0[i]``: one byte
    gather and one shift per entry.  A hit's mid is rebuilt from its
    byte and bit offsets, its pair found among the entry offsets.
    """
    mids = _gather(ws, "mids", small_pm.indptr, small_pm.indices, probe)
    low = ws.take("low", mids.size, BITMAP_DTYPE)
    np.bitwise_and(mids, 7, out=low, casting="unsafe")
    byte = np.repeat(byte0, cnt)
    byte += np.right_shift(mids, 3, out=mids)
    bit = np.take(bitmap, byte, out=ws.take("bit", mids.size, BITMAP_DTYPE),
                  mode="clip")
    del byte
    np.right_shift(bit, low, out=bit)
    # (hits are ~1 in 8 entries: index them, a boolean mask is slower)
    hits = np.flatnonzero(np.bitwise_and(bit, 1, out=bit))
    hit_mids = mids[hits]
    hit_mids <<= 3
    hit_mids |= low[hits]
    ends = np.cumsum(cnt, dtype=INDEX_DTYPE)
    return pairs[np.searchsorted(ends, hits, side="right")], hit_mids


def _search_hits(
    ws: _Scratch, small_pm, small_edge_keys, pairs, probe, other, cnt,
    n_pairs: int, n_side: int, n_mid: int, pairs_on_left: bool,
):
    """Hit rows ``(pair, mid)`` of one block of searched pairs.

    Pair ``pairs[i]`` probes the ``cnt[i]`` mids of row ``probe[i]`` for
    edges to row ``other[i]``: the implied edge keys are packed with the
    pair (argsorted past :data:`_PACKED_KEY_LIMIT`), sorted and
    binary-searched in the small graph's sorted edge keys.
    """
    edge_keys = _gather(ws, "mids", small_pm.indptr, small_pm.indices, probe)
    if pairs_on_left:  # other · n_mid + mid
        edge_keys += np.repeat(other * np.int64(n_mid), cnt)
    else:  # mid · n_side + other
        edge_keys *= np.int64(n_side)
        edge_keys += np.repeat(other, cnt)
    owner = np.repeat(pairs, cnt)
    if int(n_side) * int(n_mid) * max(n_pairs, 1) <= _PACKED_KEY_LIMIT:
        edge_keys *= np.int64(n_pairs)  # packed in place
        edge_keys += owner
        edge_keys.sort()
        np.divmod(edge_keys, np.int64(n_pairs), out=(edge_keys, owner))
    else:
        order = np.argsort(edge_keys)
        edge_keys, owner = edge_keys[order], owner[order]
    hits = np.flatnonzero(_in_sorted(edge_keys, small_edge_keys))
    hit_keys = edge_keys[hits]
    if pairs_on_left:
        hit_mids = hit_keys % np.int64(n_mid)
    else:
        hit_mids = hit_keys // np.int64(n_side)
    return owner[hits], hit_mids


def _probe_common_mids(
    ws: _Scratch,
    small_pm,
    small_edge_keys: np.ndarray,
    u_arr: np.ndarray,
    w_arr: np.ndarray,
    n_side: int,
    n_mid: int,
    pairs_on_left: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Common mids of every pair in the small graph, as hit rows.

    Gathers only the smaller adjacency of each pair (the *probe* end) and
    tests each of its mids against the other end's row: by one bit of
    the phase bitmap when that row has a bitmap row, else by one sorted
    binary search of the implied edge keys.  Pairs go in blocks of about
    :data:`_PROBE_BLOCK` entries, whose arrays live in the workspace
    ``ws``.  Returns ``(pair index, mid)`` of every hit — one row per
    common mid, in no fixed order.
    """
    n_pairs = u_arr.size
    cnt_u = small_pm.indptr[u_arr + 1] - small_pm.indptr[u_arr]
    cnt_w = small_pm.indptr[w_arr + 1] - small_pm.indptr[w_arr]
    take_u = cnt_u <= cnt_w
    probe = np.where(take_u, u_arr, w_arr)
    other = np.where(take_u, w_arr, u_arr)
    cnt = np.minimum(cnt_u, cnt_w, out=cnt_u)
    del cnt_w, take_u
    row_bytes = (n_mid + 7) >> 3
    none = np.empty(0, dtype=INDEX_DTYPE)
    hits = [(none, none)]
    try:
        rows, pair_slot = _bitmap_rows(ws, small_pm, other, cnt, row_bytes)
        bitmap = _row_bitmap(ws, small_pm, rows, row_bytes)
        on_map = pair_slot >= 0
        mapped = np.flatnonzero(on_map)
        map_cnt, map_probe = cnt[mapped], probe[mapped]
        byte0 = pair_slot[mapped] * row_bytes
        del pair_slot
        for lo, hi in _blocks(map_cnt):
            hits.append(_bitmap_hits(
                ws, small_pm, bitmap, mapped[lo:hi], map_probe[lo:hi],
                byte0[lo:hi], map_cnt[lo:hi],
            ))
    finally:
        ws.clean()
    rest = np.flatnonzero(~on_map)
    rest_cnt = cnt[rest]
    for lo, hi in _blocks(rest_cnt):
        part = rest[lo:hi]
        hits.append(_search_hits(
            ws, small_pm, small_edge_keys, part, probe[part], other[part],
            rest_cnt[lo:hi], n_pairs, n_side, n_mid, pairs_on_left,
        ))
    if obs._enabled:
        n_mapped = int(map_cnt.sum(dtype=COUNT_DTYPE))
        obs.inc("stream.apply.probe.bitmap_rows", int(rows.size))
        obs.inc("stream.apply.probe.bitmap_entries", n_mapped)
        obs.inc("stream.apply.probe.search_entries",
                int(rest_cnt.sum(dtype=COUNT_DTYPE)))
        obs.observe("stream.apply.probe.bitmap_bytes", int(bitmap.nbytes))
        obs.gauge("stream.apply.scratch_bytes", ws.nbytes, policy="max")
    return (
        np.concatenate([pair for pair, _ in hits]),
        np.concatenate([mid for _, mid in hits]),
    )


#: A phase orients each edge on its own (the split phase, module
#: docstring) only when that saves at least this many delta wedges over
#: the one-side choice; below it the second pass costs more than the
#: wedges it saves.  Read at call time, so a test can force every phase
#: that saves anything to split (0).
_SPLIT_MIN_WEDGES: int = 4096


def _side_delta(
    ws: _Scratch,
    probe,
    big,
    batch_keys: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    left_group: np.ndarray | None,
    pairs_on_left: bool,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-vertex butterfly deltas of both sides for one pivot side's pass.

    ``batch_keys`` are the phase's sorted left-major edge keys and
    ``rows``/``cols`` their endpoints; ``probe`` and ``big`` are
    ``(keys, csr, csc)`` states: the probe reads ``probe``'s pivot-major
    view and keys, the delta-wedge enumeration ``big``'s mid-major view
    (the CSC for left pivots).  ``left_group`` is ``None`` when the pass
    owns the whole batch (``probe`` the graph without it, ``big`` the one
    with it); on a split phase it marks the batch keys of G1, and the
    pass is G1's when ``pairs_on_left`` (``probe`` = ``big`` = the graph
    with the batch) or G2's (``probe`` the graph without the batch, ``big``
    the one with it, G1's legs dropped).  Returns ``(delta_left[n_left],
    delta_right[n_right], global_delta)``, all ≥ 0 — the change from
    adding the pass's edges to its smaller graph.
    """
    probe_keys, probe_csr, probe_csc = probe
    _, big_csr, big_csc = big
    n_left, n_right = big_csr.shape
    if pairs_on_left:
        probe_pm, big_comp, n_side, n_mid = probe_csr, big_csc, n_left, n_right
        batch_pivots, batch_mids = rows, cols
    else:
        probe_pm, big_comp, n_side, n_mid = probe_csc, big_csr, n_right, n_left
        batch_pivots, batch_mids = cols, rows
    first_pass = left_group is not None and pairs_on_left  # G1's
    if left_group is not None:
        mine = left_group if pairs_on_left else ~left_group
        batch_pivots, batch_mids = batch_pivots[mine], batch_mids[mine]
    n64 = np.int64(n_side)

    # 1. delta-wedge enumeration: every wedge the pass adds has a leg
    #    (p, q) of its own — emit ({p, w}, q) for every other end w of q
    counts = big_comp.indptr[batch_mids + 1] - big_comp.indptr[batch_mids]
    ends = gather_slices(big_comp.indptr, big_comp.indices, batch_mids)
    owners = np.repeat(batch_pivots, counts)
    mids = np.repeat(batch_mids, counts)
    #    a wedge with both legs the pass's own is met from both pivots:
    #    keep the lower pivot's copy (the pass's edge itself, end ==
    #    owner, is always dropped)
    pos, in_batch = _located(
        _leg_keys(ends, mids, n_side, n_mid, pairs_on_left), batch_keys
    )
    keep = owners < ends
    if left_group is None:
        keep |= ~in_batch
    else:
        in_g1 = left_group[np.minimum(pos, batch_keys.size - 1)]
        in_g1 &= in_batch
        if first_pass:  # a G2 leg is an ordinary edge of G1's graphs
            keep |= ~in_g1
        else:  # G1's legs are not in G2's graph
            keep |= ~in_batch
            keep &= ~in_g1
        del in_g1
    del pos, in_batch
    owners, ends, mids = owners[keep], ends[keep], mids[keep]
    del keep
    if mids.size == 0:
        return (np.zeros(n_left, dtype=COUNT_DTYPE),
                np.zeros(n_right, dtype=COUNT_DTYPE), 0)
    #    (arrays are dropped as soon as they are read: the probe's peak
    #    holds only what step 3 needs)
    pair_keys = np.minimum(owners, ends)
    pair_keys *= n64
    pair_keys += np.maximum(owners, ends, out=owners)
    del owners, ends
    order = np.argsort(pair_keys)
    pair_keys, mids = pair_keys[order], mids[order]
    first = np.empty(pair_keys.size, dtype=bool)
    first[0] = True
    np.not_equal(pair_keys[1:], pair_keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    uniq = pair_keys[starts]
    d = np.diff(np.append(starts, pair_keys.size)).astype(COUNT_DTYPE)
    del order, pair_keys, first, starts

    # 2. baseline probe: the old common mids X of every pair; G1's probe
    #    graph holds the pass's own rows too, one hit each (step 1's Y)
    u_arr = uniq // n64
    w_arr = uniq - u_arr * n64
    hit_pair, hit_mids = _probe_common_mids(
        ws, probe_pm, probe_keys, u_arr, w_arr, n_side, n_mid,
        pairs_on_left,
    )
    b = np.bincount(hit_pair, minlength=uniq.size).astype(
        COUNT_DTYPE, copy=False
    )
    # each y ∈ Y gains b + d − 1; in G1's probe graph each y is also one
    # of its pair's hits, which counts in b and credits it d
    if first_pass:
        b -= d
        y_credit = b - 1
    else:
        y_credit = b + d - 1

    # 3. closed-form update, credited to both sides (docstring §3); the
    #    kept rows are grouped by pair, so pair i's y rows are the next d[i]
    delta_pivot = np.zeros(n_side, dtype=COUNT_DTYPE)
    delta_mid = np.zeros(n_mid, dtype=COUNT_DTYPE)
    pair_delta = b * d + choose2(d)
    np.add.at(delta_pivot, u_arr, pair_delta)
    np.add.at(delta_pivot, w_arr, pair_delta)
    np.add.at(delta_mid, hit_mids, d[hit_pair])
    np.add.at(delta_mid, mids, np.repeat(y_credit, d))
    global_delta = int(pair_delta.sum(dtype=COUNT_DTYPE))
    if pairs_on_left:
        return delta_pivot, delta_mid, global_delta
    return delta_mid, delta_pivot, global_delta


class StreamingButterflyCounter:
    """Exact butterfly count + per-vertex counts under batched updates.

    The batched successor of
    :class:`~repro.core.stream.dynamic.DynamicButterflyCounter`: one
    :meth:`apply` call ingests a whole insert/delete batch with
    vectorised wedge expansions instead of per-edge Python set
    intersections, and the maintained state (global count, per-left and
    per-right count arrays) is bitwise-identical to a from-scratch
    recount after every batch — the contract the randomized-script
    conformance harness pins.

    Parameters
    ----------
    graph:
        Initial graph (``BipartiteGraph.empty(m, n)`` for a fresh
        stream).  Vertex sets are fixed at construction; edges are
        dynamic.
    """

    #: Pins every incremental phase to one pass on one side (``"left"`` /
    #: ``"right"``, never split); ``None`` orients each edge to its
    #: cheaper pivot, or the whole phase to the cheaper side below the
    #: split gate.  A test hook: every choice gives bit-identical results.
    _probe_side: str | None = None

    def __init__(self, graph: BipartiteGraph) -> None:
        n_left, n_right = graph.n_left, graph.n_right
        if n_left > 0 and n_right > 0 and n_left > (2**63 - 1) // n_right:
            raise ValueError(
                f"vertex-id key space {n_left}x{n_right} overflows int64"
            )
        self.n_left = n_left
        self.n_right = n_right
        coo = graph.coo  # canonical: row-major sorted, duplicate-free
        self._keys = (
            coo.rows.astype(np.int64) * np.int64(max(n_right, 1)) + coo.cols
        )
        # spliced, never written in place: the graph's views stay intact
        self._csr: PatternCSR = graph.csr
        self._csc: PatternCSC = graph.csc
        self._count_from(graph)
        self._scratch = _Scratch()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        """Current number of edges — O(1)."""
        return int(self._keys.size)

    def has_edge(self, u: int, v: int) -> bool:
        """True when edge (u, v) is present (O(log E))."""
        u, v = self._check_ids(u, v)
        key = np.int64(u) * np.int64(max(self.n_right, 1)) + np.int64(v)
        return bool(_in_sorted(np.asarray([key]), self._keys)[0])

    def vertex_count(self, vertex: int, side: str = "left") -> int:
        """Current number of butterflies containing ``vertex``.

        ``IndexError`` when ``vertex`` is outside ``[0, n)`` of ``side``
        (no negative indexing from the end), ``ValueError`` when it is not
        an integer.
        """
        counts = self._per_side(side)
        return int(counts[_vertex_id(vertex, counts.size, side)])

    def vertex_counts(self, side: str = "left") -> np.ndarray:
        """Copy of the maintained per-vertex count array for ``side``."""
        return self._per_side(side).copy()

    def _per_side(self, side: str) -> np.ndarray:
        if side == "left":
            return self._per_left
        if side == "right":
            return self._per_right
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def to_graph(self) -> BipartiteGraph:
        """Materialise the current edge set as an immutable graph."""
        g = BipartiteGraph.from_csr(self._csr)
        g._csc = self._csc
        return g

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def _check_ids(self, u, v) -> tuple[int, int]:
        return (
            _vertex_id(u, self.n_left, "left"),
            _vertex_id(v, self.n_right, "right"),
        )

    def _batch_keys(self, edges) -> np.ndarray:
        """Checked, de-duplicated sorted int64 keys of one batch side."""
        edges = batch_edges(edges, self.n_left, self.n_right)
        if edges.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        keys = edges[:, 0] * np.int64(max(self.n_right, 1)) + edges[:, 1]
        keys.sort()
        if keys.size > 1:
            keep = np.empty(keys.size, dtype=bool)
            keep[0] = True
            np.not_equal(keys[1:], keys[:-1], out=keep[1:])
            keys = keys[keep]
        return keys

    def _spliced(self, changed_keys, pos, rows, cols, *, remove: bool):
        """``(keys, csr, csc)`` with the edges ``changed_keys`` (split into
        ``rows``/``cols``, at their ``searchsorted`` positions ``pos`` in
        ``_keys``) inserted, or removed when ``remove``.

        One copy per array and an O(V) ``indptr`` shift per view; the
        current arrays are left as they are (see the module docstring).
        """
        crows, ccols, cpos = _column_positions(self._csc, rows, cols)
        shape = (self.n_left, self.n_right)
        sign = -1 if remove else 1
        if remove:
            keys = np.delete(self._keys, pos)
            indices = np.delete(self._csr.indices, pos)
            cindices = np.delete(self._csc.indices, cpos)
        else:
            keys = np.insert(self._keys, pos, changed_keys)
            indices = np.insert(self._csr.indices, pos, cols)
            cindices = np.insert(self._csc.indices, cpos, crows)
        csr = PatternCSR(
            _shift_indptr(self._csr.indptr, rows, sign), indices, shape,
            check=False,
        )
        csc = PatternCSC(
            _shift_indptr(self._csc.indptr, ccols, sign), cindices, shape,
            check=False,
        )
        return keys, csr, csc

    def _phase_delta(
        self, small, big, changed_keys, rows, cols
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """Delta between the graph without and with ``changed_keys``.

        ``small`` is the ``(keys, csr, csc)`` state missing the changed
        edges, ``big`` the one containing them.  Each edge ``(u, v)``
        prices its delta wedges from both pivots, ``deg_B(v)`` left and
        ``deg_B(u)`` right.  When orienting every edge to its cheaper
        pivot saves at least :data:`_SPLIT_MIN_WEDGES` wedges over the
        cheaper whole side, the phase splits: G1 (the left-pivot edges)
        and G2 run one :func:`_side_delta` pass each and their deltas
        add.  Otherwise (and on every phase when :attr:`_probe_side` is
        set) one pass pivots on the whole phase's side.  Returns the
        (positive-direction) global delta and the per-left and per-right
        delta arrays.
        """
        side = self._probe_side
        left_group = None
        if side is None:
            left_work = big[2].indptr[cols + 1] - big[2].indptr[cols]
            right_work = big[1].indptr[rows + 1] - big[1].indptr[rows]
            total_left = int(left_work.sum(dtype=COUNT_DTYPE))
            total_right = int(right_work.sum(dtype=COUNT_DTYPE))
            on_left = left_work <= right_work
            per_edge = int(np.where(on_left, left_work, right_work).sum(
                dtype=COUNT_DTYPE
            ))
            saving = min(total_left, total_right) - per_edge
            if saving > 0 and saving >= _SPLIT_MIN_WEDGES:
                left_group = on_left  # saving > 0: both groups hold edges
            side = "left" if total_left <= total_right else "right"
        if left_group is None:
            passes = [(small, side == "left")]
        else:
            passes = [(big, True), (small, False)]
        g_delta, d_left, d_right = 0, 0, 0
        for probe, on_left in passes:
            if obs._enabled:
                obs.inc(f"stream.apply.probe.{'left' if on_left else 'right'}")
            p_left, p_right, p_delta = _side_delta(
                self._scratch, probe, big, changed_keys, rows, cols,
                left_group, on_left,
            )
            d_left = d_left + p_left
            d_right = d_right + p_right
            g_delta += p_delta
        return g_delta, d_left, d_right

    def apply(
        self,
        insert=(),
        delete=(),
        *,
        strict: bool = False,
        strategy: str = "incremental",
    ) -> dict:
        """Apply one batch of edge deletions and insertions.

        Deletions are applied first, then insertions (so an edge listed
        in both ends up present).  By default edges to delete that are
        absent and edges to insert that are already present are skipped,
        matching the per-edge counter's ``add_edges``/``remove_edges``;
        ``strict=True`` raises ``ValueError`` instead.  Duplicates inside
        either list are collapsed.

        ``strategy="recount"`` rebuilds the edge set and recomputes all
        counts from scratch (the planner's fallback candidate — same
        result, different cost profile).  ``"auto"`` is not accepted
        here: the planner is reached through ``engine.plan`` /
        ``engine.execute`` (or ``repro-butterfly stream --strategy
        auto``), which then pin one of the two.

        Returns a stats dict: ``created`` / ``destroyed`` butterflies,
        ``inserted`` / ``deleted`` edges actually applied,
        ``skipped_insert`` / ``skipped_delete`` and ``batch_size``
        (distinct requested edits) — the same under either strategy.
        """
        if strategy not in STREAM_STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of "
                f"{STREAM_STRATEGIES}"
            )
        ins_keys = self._batch_keys(insert)
        del_keys = self._batch_keys(delete)
        with obs.span(
            "stream.apply",
            strategy=strategy,
            inserts=int(ins_keys.size),
            deletes=int(del_keys.size),
        ):
            del_pos, del_present = _located(del_keys, self._keys)
            if strict and not del_present.all():
                raise ValueError("strict batch: some edges to delete are absent")
            del_keys, del_pos = del_keys[del_present], del_pos[del_present]
            skipped_delete = int((~del_present).sum(dtype=COUNT_DTYPE))

            stats = {
                "created": 0,
                "destroyed": 0,
                "inserted": 0,
                "deleted": int(del_keys.size),
                "skipped_insert": 0,
                "skipped_delete": skipped_delete,
                "batch_size": int(ins_keys.size + del_keys.size + skipped_delete),
            }

            if del_keys.size:
                self._apply_phase(del_keys, del_pos, remove=True,
                                  strategy=strategy, stats=stats)

            ins_pos, ins_present = _located(ins_keys, self._keys)
            if strict and ins_present.any():
                raise ValueError(
                    "strict batch: some edges to insert are already present"
                )
            ins_keys, ins_pos = ins_keys[~ins_present], ins_pos[~ins_present]
            stats["inserted"] = int(ins_keys.size)
            stats["skipped_insert"] = int(ins_present.sum(dtype=COUNT_DTYPE))

            if ins_keys.size:
                self._apply_phase(ins_keys, ins_pos, remove=False,
                                  strategy=strategy, stats=stats)

            if obs._enabled:
                obs.inc("stream.apply.batches")
                obs.observe("stream.apply.batch_size", stats["batch_size"])
                obs.inc("stream.apply.edges_inserted", stats["inserted"])
                obs.inc("stream.apply.edges_deleted", stats["deleted"])
        return stats

    def _apply_phase(
        self,
        changed_keys: np.ndarray,
        pos: np.ndarray,
        *,
        remove: bool,
        strategy: str,
        stats: dict,
    ) -> None:
        """One homogeneous phase (all-deletes or all-inserts) of a batch;
        ``pos`` holds the changed keys' ``searchsorted`` positions in
        ``_keys``."""
        n = np.int64(max(self.n_right, 1))
        rows = changed_keys // n
        cols = changed_keys - rows * n
        spliced = self._spliced(changed_keys, pos, rows, cols, remove=remove)
        if strategy == "recount":
            before = self.count
            self._keys, self._csr, self._csc = spliced
            self._count_from(self.to_graph())
            delta = abs(self.count - before)
        else:
            current = (self._keys, self._csr, self._csc)
            small, big = (spliced, current) if remove else (current, spliced)
            delta, d_left, d_right = self._phase_delta(
                small, big, changed_keys, rows, cols
            )
            if remove:
                self.count -= delta
                self._per_left -= d_left
                self._per_right -= d_right
            else:
                self.count += delta
                self._per_left += d_left
                self._per_right += d_right
            self._keys, self._csr, self._csc = spliced
        stats["destroyed" if remove else "created"] += delta

    def _count_from(self, graph: BipartiteGraph) -> None:
        """Set Ξ and both per-vertex arrays from scratch for ``graph``.

        One vertex-priority pass yields both sides.  Ξ comes from the
        per-left vector — every butterfly holds exactly two left
        vertices, so ``Σ per_left = 2Ξ`` — with no extra wedge pass of
        its own.
        """
        from repro.core.priority import vertex_butterfly_counts_priority

        self._per_left, self._per_right = vertex_butterfly_counts_priority(graph)
        self.count: int = int(self._per_left.sum(dtype=COUNT_DTYPE)) // 2

    # convenience wrappers matching the per-edge counter's vocabulary ---
    def add_edges(self, edges) -> int:
        """Insert a batch (skipping present edges); returns butterflies created."""
        return self.apply(insert=edges)["created"]

    def remove_edges(self, edges) -> int:
        """Delete a batch (skipping absent edges); returns butterflies destroyed."""
        return self.apply(delete=edges)["destroyed"]

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Serialise the full counter state (versioned + checksummed)."""
        from repro.core.stream.snapshot import encode_snapshot

        return encode_snapshot(
            n_left=self.n_left,
            n_right=self.n_right,
            count=self.count,
            keys=self._keys,
            per_left=self._per_left,
            per_right=self._per_right,
        )

    def restore(self, data: bytes) -> None:
        """Replace this counter's state with a decoded snapshot.

        Raises a typed :class:`~repro.core.stream.snapshot.SnapshotError`
        subclass on truncated / corrupted / wrong-version bytes; the
        counter is left untouched on any failure (all validation happens
        before the first attribute is swapped).
        """
        from repro.core.stream.snapshot import decode_snapshot

        state = decode_snapshot(data)
        if (state["n_left"], state["n_right"]) != (self.n_left, self.n_right):
            from repro.core.stream.snapshot import SnapshotFormatError

            raise SnapshotFormatError(
                f"snapshot shape {state['n_left']}x{state['n_right']} does "
                f"not match counter shape {self.n_left}x{self.n_right}"
            )
        keys = state["keys"]  # strictly increasing, checked by the decoder
        rows, cols = np.divmod(keys, np.int64(max(self.n_right, 1)))
        graph = BipartiteGraph(PatternCOO(rows, cols, (self.n_left, self.n_right)))
        self._keys, self._csr, self._csc = keys, graph.csr, graph.csc
        self.count = state["count"]
        self._per_left = state["per_left"]
        self._per_right = state["per_right"]

    def __repr__(self) -> str:
        return (
            f"StreamingButterflyCounter(|V1|={self.n_left}, "
            f"|V2|={self.n_right}, |E|={self.n_edges}, "
            f"butterflies={self.count})"
        )
