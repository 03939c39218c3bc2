"""Batched incremental butterfly maintenance — the streaming tier's core.

The per-edge dynamic counter (:mod:`repro.core.stream.dynamic`) applies
the paper's eq. 23 delta one Python-set intersection at a time; this
module applies the *same* closed form to a whole batch at once with the
repo's vectorised wedge machinery.

Algorithm (one batch, one side; both sides run symmetrically)
-------------------------------------------------------------
Let ``A`` be the batch's edge set, ``S`` the graph without ``A`` and
``B = S ∪ A`` the graph with it.  For a left pair ``{u, w}`` with wedge
count ``B_uw`` the pair's butterfly contribution is ``C(B_uw, 2)``
(eq. 18), so the batch changes exactly the pairs that gain or lose a
wedge — and every such *delta wedge* runs through a batch edge.  Three
vectorised steps, all sized by the batch's wedge footprint rather than
the whole graph:

1. **Delta-wedge enumeration** — for each ``(u, v) ∈ A`` emit the pairs
   ``{u, w}`` for ``w ∈ N_B(v) \\ {u}`` (one ``gather_slices`` over the
   big graph's CSC).  A wedge whose legs are *both* batch edges is
   emitted twice, once per leg; subtracting the within-batch pair count
   per shared mid (``Σ_v C(|A_v|, 2)`` pairs) leaves the exact wedge
   delta ``δ_uw`` for every affected canonical pair key
   ``min·n + max``.
2. **Baseline wedge counts, no Python set intersections** — two
   vectorised ways to get ``B_uw = |N_S(u) ∩ N_S(w)|`` per affected
   pair, selected by ``method`` (``auto`` picks by gather footprint):

   - ``panel``: gather ``N_S(u)`` and ``N_S(w)`` (int64 CSR slices)
     under the pair's owner id; every mid occurs at most twice per
     owner, so :func:`repro.sparsela.kernels.panel_choose2_per_owner` —
     with ``C(2,2)=1, C(1,2)=0`` — returns exactly the intersection
     sizes, sort-free.  Best when pair neighbourhoods are small (the
     conformance-scale regime).
   - ``probe``: gather only the *smaller* adjacency of each pair and
     binary-search the implied edge keys against the small graph's
     sorted edge-key array; ``B_uw`` is the per-pair hit count.  Work is
     ``Σ min(deg u, deg w) · log |E|`` — the hub-resistant choice for
     large batches on skewed graphs.
3. **Closed-form update** — per pair
   ``ΔC2 = C(B_uw + δ_uw, 2) − C(B_uw, 2)``; scatter to both endpoints'
   per-vertex counts, sum for ``ΔΞ``, done symmetrically for right-side
   pairs (the two global deltas must agree and are asserted equal).

Intra-batch interactions — edges of the same batch closing butterflies
with each other — are exact by construction (enumeration runs against
``B``, so a wedge between two batch edges is one more unit of
``δ_uw``); the number of butterflies whose *both* wedges were created
(or destroyed) by this batch is ``Σ C(δ_uw, 2)`` over left pairs,
reported as ``intra_batch_closures``.

Deletions reuse the same small-graph→big-graph delta with the roles
reversed (``S`` is the post-delete graph, ``B`` the current one) and the
result subtracted.  Within one :meth:`StreamingButterflyCounter.apply`
call deletes are applied before inserts (the documented batch
semantics: an edge listed in both ends up present).

State is array-backed: the edge set is one sorted int64 composite-key
array (``u·n_right + v``), giving O(1) ``n_edges``, O(log E) membership,
and an O(E) counting-sort rebuild of both compressed views per batch.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro._types import COUNT_DTYPE, INDEX_DTYPE
from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela import PatternCSC, PatternCSR
from repro.sparsela.kernels import (
    choose2,
    gather_slices,
    panel_choose2_per_owner,
)

__all__ = [
    "StreamingButterflyCounter",
    "STREAM_APPLY_STRATEGIES",
    "STREAM_BASELINE_METHODS",
]

#: Execution strategies :meth:`StreamingButterflyCounter.apply` accepts —
#: the same vocabulary the engine's ``stream_apply`` workload plans over.
STREAM_APPLY_STRATEGIES: tuple[str, ...] = ("incremental", "recount")

#: Baseline-wedge-count methods for the incremental path (docstring §2).
STREAM_BASELINE_METHODS: tuple[str, ...] = ("auto", "panel", "probe")

#: ``auto`` switches from the panel reduction to membership probing once
#: the panel's both-adjacency gather footprint passes this many entries.
PANEL_FOOTPRINT_CAP = 1 << 17


def _as_edge_array(edges) -> np.ndarray:
    """Normalise an edge iterable / (e, 2) array to an int64 (e, 2) array."""
    if isinstance(edges, np.ndarray):
        arr = edges.astype(np.int64, copy=False)
    else:
        arr = np.asarray(list(edges), dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edge batch must have shape (e, 2)")
    return arr


def _in_sorted(values: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean membership of ``values`` in the sorted unique ``sorted_keys``."""
    if sorted_keys.size == 0:
        return np.zeros(values.shape, dtype=bool)
    pos = np.searchsorted(sorted_keys, values)
    pos_clipped = np.minimum(pos, sorted_keys.size - 1)
    return sorted_keys[pos_clipped] == values


def _merge_sorted(keys: np.ndarray, add: np.ndarray) -> np.ndarray:
    """Union of sorted ``keys`` with sorted ``add`` (disjoint from keys).

    One binary search plus one O(E) copy — cheaper than ``np.union1d``'s
    full re-sort of the concatenation.
    """
    if add.size == 0:
        return keys
    return np.insert(keys, np.searchsorted(keys, add), add)


def _remove_sorted(keys: np.ndarray, rem: np.ndarray) -> np.ndarray:
    """Sorted ``keys`` minus sorted ``rem`` (every element present)."""
    if rem.size == 0:
        return keys
    return np.delete(keys, np.searchsorted(keys, rem))


def _sorted_unique_counts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(unique, multiplicities)`` of ``values`` — sorts ``values`` in place."""
    values.sort()
    flags = np.empty(values.size, dtype=bool)
    flags[0] = True
    np.not_equal(values[1:], values[:-1], out=flags[1:])
    starts = np.flatnonzero(flags)
    counts = np.diff(np.append(starts, values.size)).astype(COUNT_DTYPE)
    return values[starts], counts


def _within_batch_pair_keys(
    pivot_ids: np.ndarray, mid_ids: np.ndarray, n_side: int
) -> np.ndarray:
    """Canonical pair keys of wedges whose *both* legs are batch edges.

    ``(pivot_ids[k], mid_ids[k])`` are the batch edges viewed from one
    side; two batch edges sharing a mid form one within-batch wedge
    between their pivots.  Returns one ``min·n + max`` key per such
    wedge (with multiplicity).
    """
    if pivot_ids.size < 2:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(mid_ids, kind="stable")
    mids = mid_ids[order]
    pivs = pivot_ids[order]
    starts = np.flatnonzero(np.r_[True, mids[1:] != mids[:-1]])
    ends = np.r_[starts[1:], mids.size]
    chunks = []
    for s, e in zip(starts, ends):
        if e - s >= 2:
            group = pivs[s:e]  # ascending (stable sort of sorted input)
            i, j = np.triu_indices(e - s, k=1)
            chunks.append(group[i] * np.int64(n_side) + group[j])
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


def _baseline_panel(
    small_pm, u_arr, w_arr, cnt_u, cnt_w, n_pairs: int, n_mid: int
) -> np.ndarray:
    """``B_uw`` per pair via the sort-free panel reduction.

    Gathers both pairs' slices under one owner id — each mid appears at
    most twice per owner, so the panel ``Σ C(mult, 2)`` *is*
    ``|N(u) ∩ N(w)|``.
    """
    pair_ids = np.arange(n_pairs, dtype=INDEX_DTYPE)
    owners = np.concatenate(
        [np.repeat(pair_ids, cnt_u), np.repeat(pair_ids, cnt_w)]
    )
    mids = np.concatenate(
        [
            gather_slices(small_pm.indptr, small_pm.indices, u_arr),
            gather_slices(small_pm.indptr, small_pm.indices, w_arr),
        ]
    )
    order = np.argsort(owners, kind="stable")
    return panel_choose2_per_owner(
        owners[order], mids[order], n_pairs, n_mid, method="auto"
    )


def _baseline_probe(
    small_pm,
    small_edge_keys: np.ndarray,
    u_arr,
    w_arr,
    cnt_u,
    cnt_w,
    n_pairs: int,
    n_side: int,
    n_mid: int,
    pairs_on_left: bool,
) -> np.ndarray:
    """``B_uw`` per pair via membership probing of the sorted key array.

    Gathers only the smaller adjacency of each pair and binary-searches
    the implied edge keys; work ``Σ min(deg u, deg w) · log |E|`` — each
    hit is one common mid.
    """
    take_u = cnt_u <= cnt_w
    probe = np.where(take_u, u_arr, w_arr)
    other = np.where(take_u, w_arr, u_arr)
    cnt = np.where(take_u, cnt_u, cnt_w)
    mids = gather_slices(small_pm.indptr, small_pm.indices, probe)
    owner = np.repeat(np.arange(n_pairs, dtype=INDEX_DTYPE), cnt)
    other_rep = np.repeat(other, cnt)
    if pairs_on_left:  # edge keys are left-major: left · n_right + right
        edge_keys = other_rep * np.int64(n_mid) + mids
    else:
        edge_keys = mids * np.int64(n_side) + other_rep
    # searchsorted over random probe order is branch-miss bound; for big
    # probe sets, packing (key, owner) and sorting first is ~5x faster
    key_space = np.int64(n_side) * np.int64(n_mid)
    if edge_keys.size > (1 << 16) and key_space < (1 << 62) // max(n_pairs, 1):
        packed = edge_keys * np.int64(n_pairs) + owner
        packed.sort()
        hits = _in_sorted(packed // np.int64(n_pairs), small_edge_keys)
        hit_owners = packed[hits] % np.int64(n_pairs)
    else:
        hits = _in_sorted(edge_keys, small_edge_keys)
        hit_owners = owner[hits]
    return np.bincount(hit_owners, minlength=n_pairs).astype(
        COUNT_DTYPE, copy=False
    )


def _side_delta(
    small_pm,
    big_comp,
    small_edge_keys: np.ndarray,
    batch_pivots: np.ndarray,
    batch_mids: np.ndarray,
    n_side: int,
    n_mid: int,
    pairs_on_left: bool,
    method: str,
) -> tuple[np.ndarray, int, int]:
    """Per-vertex butterfly deltas for one side, small graph → big graph.

    ``batch_pivots`` / ``batch_mids`` are the batch edges as (this-side
    vertex, other-side vertex); ``small_pm`` is the small graph's
    pivot-major view (CSR for the left side), ``big_comp`` the big
    graph's complementary view (CSC for the left side), and
    ``small_edge_keys`` the small graph's sorted left-major edge keys.
    Returns ``(delta[n_side], global_delta, intra_batch_closures)`` with
    ``global_delta ≥ 0`` — the change in Ξ from adding the batch to the
    small graph (identical from either side; the caller asserts this).
    """
    delta = np.zeros(n_side, dtype=COUNT_DTYPE)
    if batch_pivots.size == 0:
        return delta, 0, 0
    n64 = np.int64(n_side)

    # 1. delta-wedge enumeration: every wedge gained by the batch runs
    #    through a batch edge — emit its vertex pair from that leg
    ends = gather_slices(big_comp.indptr, big_comp.indices, batch_mids)
    end_counts = big_comp.indptr[batch_mids + 1] - big_comp.indptr[batch_mids]
    owners = np.repeat(batch_pivots, end_counts)
    keep = ends != owners
    ends, owners = ends[keep], owners[keep]
    emitted = np.minimum(owners, ends) * n64 + np.maximum(owners, ends)

    if emitted.size == 0:
        return delta, 0, 0
    uniq, wedge_delta = _sorted_unique_counts(emitted)
    # wedges with both legs in the batch were emitted once per leg
    both_keys = _within_batch_pair_keys(batch_pivots, batch_mids, n_side)
    if both_keys.size:
        wedge_delta -= np.bincount(
            np.searchsorted(uniq, both_keys), minlength=uniq.size
        ).astype(COUNT_DTYPE, copy=False)

    # 2. baseline wedge counts B_uw in the small graph (docstring §2)
    u_arr = uniq // n64
    w_arr = uniq % n64
    cnt_u = small_pm.indptr[u_arr + 1] - small_pm.indptr[u_arr]
    cnt_w = small_pm.indptr[w_arr + 1] - small_pm.indptr[w_arr]
    chosen = method
    if chosen == "auto":
        footprint = int(cnt_u.sum(dtype=COUNT_DTYPE)) + int(
            cnt_w.sum(dtype=COUNT_DTYPE)
        )
        chosen = "panel" if footprint <= PANEL_FOOTPRINT_CAP else "probe"
    if chosen == "panel":
        baseline = _baseline_panel(
            small_pm, u_arr, w_arr, cnt_u, cnt_w, uniq.size, n_mid
        )
    else:
        baseline = _baseline_probe(
            small_pm, small_edge_keys, u_arr, w_arr, cnt_u, cnt_w,
            uniq.size, n_side, n_mid, pairs_on_left,
        )

    # 3. closed-form per-pair update, scattered to both endpoints
    pair_delta = choose2(baseline + wedge_delta) - choose2(baseline)
    np.add.at(delta, u_arr.astype(np.int64), pair_delta)
    np.add.at(delta, w_arr.astype(np.int64), pair_delta)
    global_delta = int(pair_delta.sum(dtype=COUNT_DTYPE))
    closures = int(choose2(wedge_delta).sum(dtype=COUNT_DTYPE))
    return delta, global_delta, closures


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
        # column-major twin of _keys (v * n_left + u), maintained in
        # lock-step so CSC rebuilds never need an argsort
        self._ckeys = np.sort(
            coo.cols.astype(np.int64) * np.int64(max(n_left, 1)) + coo.rows
        )
        self._csr: PatternCSR = graph.csr
        self._csc: PatternCSC = graph.csc
        self._count_from(graph)
        #: stats dict of the most recent :meth:`apply` (None before any)
        self.last_stats: dict | None = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        """Current number of edges — O(1)."""
        return int(self._keys.size)

    def has_edge(self, u: int, v: int) -> bool:
        """True when edge (u, v) is present (O(log E))."""
        self._check_ids(u, v)
        key = np.int64(u) * np.int64(max(self.n_right, 1)) + np.int64(v)
        return bool(_in_sorted(np.asarray([key]), self._keys)[0])

    def vertex_count(self, vertex: int, side: str = "left") -> int:
        """Current number of butterflies containing ``vertex``."""
        return int(self._per_side(side)[vertex])

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
    def _check_ids(self, u: int, v: int) -> None:
        if not 0 <= u < self.n_left:
            raise IndexError(f"left vertex {u} out of range [0, {self.n_left})")
        if not 0 <= v < self.n_right:
            raise IndexError(
                f"right vertex {v} out of range [0, {self.n_right})"
            )

    def _batch_keys(self, edges: np.ndarray) -> np.ndarray:
        """Validated, de-duplicated sorted int64 keys of one batch side."""
        if edges.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        rows, cols = edges[:, 0], edges[:, 1]
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.n_left:
                raise IndexError(
                    f"left vertex out of range [0, {self.n_left})"
                )
            if cols.min() < 0 or cols.max() >= self.n_right:
                raise IndexError(
                    f"right vertex out of range [0, {self.n_right})"
                )
        keys = rows * np.int64(max(self.n_right, 1)) + cols
        keys.sort()
        if keys.size > 1:
            keep = np.empty(keys.size, dtype=bool)
            keep[0] = True
            np.not_equal(keys[1:], keys[:-1], out=keep[1:])
            keys = keys[keep]
        return keys

    def _col_keys(self, keys: np.ndarray) -> np.ndarray:
        """Sorted column-major (v * n_left + u) twin of row-major ``keys``."""
        n = np.int64(max(self.n_right, 1))
        m = np.int64(max(self.n_left, 1))
        rows = keys // n
        cols = keys - rows * n
        out = cols * m + rows
        out.sort()
        return out

    def _structures_for(
        self, keys: np.ndarray, ckeys: np.ndarray
    ) -> tuple[PatternCSR, PatternCSC]:
        """Counting-sort rebuild of both compressed views from sorted keys.

        ``keys`` is row-major sorted, ``ckeys`` its column-major twin —
        with both on hand neither view needs an argsort.
        """
        m, n = self.n_left, self.n_right
        rows = keys // np.int64(max(n, 1))
        cols = keys - rows * np.int64(max(n, 1))
        row_counts = np.bincount(rows, minlength=m).astype(INDEX_DTYPE)
        indptr_r = np.zeros(m + 1, dtype=INDEX_DTYPE)
        np.cumsum(row_counts, out=indptr_r[1:])
        csr = PatternCSR(
            indptr_r, cols.astype(INDEX_DTYPE, copy=False), (m, n), check=False
        )
        crows = ckeys // np.int64(max(m, 1))
        ccols = ckeys - crows * np.int64(max(m, 1))
        col_counts = np.bincount(crows, minlength=n).astype(INDEX_DTYPE)
        indptr_c = np.zeros(n + 1, dtype=INDEX_DTYPE)
        np.cumsum(col_counts, out=indptr_c[1:])
        csc = PatternCSC(
            indptr_c,
            ccols.astype(INDEX_DTYPE, copy=False),
            (m, n),
            check=False,
        )
        return csr, csc

    def _phase_delta(
        self,
        small_keys: np.ndarray,
        small_csr,
        small_csc,
        big_csr,
        big_csc,
        changed_keys: np.ndarray,
        method: str,
    ) -> tuple[int, np.ndarray, np.ndarray, int]:
        """Delta between the graph without and with ``changed_keys``.

        ``small_*`` is the graph missing the changed edges, ``big_*`` the
        one containing them; returns the (positive-direction) global
        delta, per-left and per-right delta arrays, and the intra-batch
        closure count.
        """
        n = np.int64(max(self.n_right, 1))
        rows = changed_keys // n
        cols = changed_keys - rows * n
        d_left, g_left, closures = _side_delta(
            small_csr, big_csc, small_keys, rows, cols,
            self.n_left, self.n_right, True, method,
        )
        d_right, g_right, _ = _side_delta(
            small_csc, big_csr, small_keys, cols, rows,
            self.n_right, self.n_left, False, method,
        )
        assert g_left == g_right, "left/right batch deltas disagree"
        return g_left, d_left, d_right, closures

    def apply(
        self,
        insert=(),
        delete=(),
        *,
        strict: bool = False,
        method: str = "auto",
        strategy: str = "incremental",
    ) -> dict:
        """Apply one batch of edge deletions and insertions.

        Deletions are applied first, then insertions (so an edge listed
        in both ends up present).  By default edges to delete that are
        absent and edges to insert that are already present are skipped,
        matching the per-edge counter's ``add_edges``/``remove_edges``;
        ``strict=True`` raises ``ValueError`` instead.  Duplicates inside
        either list are collapsed.

        ``method`` selects the baseline-wedge-count path
        (:data:`STREAM_BASELINE_METHODS`: ``auto``, ``panel``,
        ``probe`` — see the module docstring);
        ``strategy="recount"`` rebuilds the edge set and recomputes all
        counts from scratch (the planner's fallback candidate — same
        result, different cost profile).

        Returns a stats dict: ``created`` / ``destroyed`` butterflies,
        ``inserted`` / ``deleted`` edges actually applied,
        ``skipped_insert`` / ``skipped_delete``, ``batch_size`` (distinct
        requested edits) and ``intra_batch_closures`` (butterflies whose
        *both* wedges were completed — or removed — by this batch).
        """
        if strategy not in STREAM_APPLY_STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of "
                f"{STREAM_APPLY_STRATEGIES}"
            )
        if method not in STREAM_BASELINE_METHODS:
            raise ValueError(
                f"unknown method {method!r}; expected one of "
                f"{STREAM_BASELINE_METHODS}"
            )
        ins_keys = self._batch_keys(_as_edge_array(insert))
        del_keys = self._batch_keys(_as_edge_array(delete))
        with obs.span(
            "stream.apply",
            strategy=strategy,
            inserts=int(ins_keys.size),
            deletes=int(del_keys.size),
        ):
            del_present = _in_sorted(del_keys, self._keys)
            if strict and not del_present.all():
                raise ValueError("strict batch: some edges to delete are absent")
            del_keys = del_keys[del_present]
            skipped_delete = int((~del_present).sum(dtype=COUNT_DTYPE))

            stats = {
                "created": 0,
                "destroyed": 0,
                "inserted": 0,
                "deleted": int(del_keys.size),
                "skipped_insert": 0,
                "skipped_delete": skipped_delete,
                "batch_size": int(ins_keys.size + del_keys.size + skipped_delete),
                "intra_batch_closures": 0,
            }

            if del_keys.size:
                self._apply_phase(del_keys, remove=True, method=method,
                                  strategy=strategy, stats=stats)

            ins_present = _in_sorted(ins_keys, self._keys)
            if strict and ins_present.any():
                raise ValueError(
                    "strict batch: some edges to insert are already present"
                )
            ins_keys = ins_keys[~ins_present]
            stats["inserted"] = int(ins_keys.size)
            stats["skipped_insert"] = int(ins_present.sum(dtype=COUNT_DTYPE))

            if ins_keys.size:
                self._apply_phase(ins_keys, remove=False, method=method,
                                  strategy=strategy, stats=stats)

            if obs._enabled:
                obs.inc("stream.apply.batches")
                obs.observe("stream.apply.batch_size", stats["batch_size"])
                obs.inc(
                    "stream.apply.intra_batch_closures",
                    stats["intra_batch_closures"],
                )
                obs.inc("stream.apply.edges_inserted", stats["inserted"])
                obs.inc("stream.apply.edges_deleted", stats["deleted"])
        self.last_stats = stats
        return stats

    def _apply_phase(
        self,
        changed_keys: np.ndarray,
        *,
        remove: bool,
        method: str,
        strategy: str,
        stats: dict,
    ) -> None:
        """One homogeneous phase (all-deletes or all-inserts) of a batch."""
        changed_ckeys = self._col_keys(changed_keys)
        if remove:
            small_keys = _remove_sorted(self._keys, changed_keys)
            small_ckeys = _remove_sorted(self._ckeys, changed_ckeys)
            big_keys, big_ckeys = self._keys, self._ckeys
        else:
            small_keys, small_ckeys = self._keys, self._ckeys
            big_keys = _merge_sorted(self._keys, changed_keys)
            big_ckeys = _merge_sorted(self._ckeys, changed_ckeys)
        if strategy == "recount":
            if remove:
                self._recount_to(small_keys, small_ckeys)
            else:
                self._recount_to(big_keys, big_ckeys)
            delta = self._last_recount_delta
        else:
            if remove:
                small_csr, small_csc = self._structures_for(
                    small_keys, small_ckeys
                )
                big_csr, big_csc = self._csr, self._csc
            else:
                small_csr, small_csc = self._csr, self._csc
                big_csr, big_csc = self._structures_for(big_keys, big_ckeys)
            g_delta, d_left, d_right, closures = self._phase_delta(
                small_keys, small_csr, small_csc, big_csr, big_csc,
                changed_keys, method,
            )
            stats["intra_batch_closures"] += closures
            if remove:
                self.count -= g_delta
                self._per_left -= d_left
                self._per_right -= d_right
                self._keys, self._ckeys = small_keys, small_ckeys
                self._csr, self._csc = small_csr, small_csc
                stats["destroyed"] += g_delta
            else:
                self.count += g_delta
                self._per_left += d_left
                self._per_right += d_right
                self._keys, self._ckeys = big_keys, big_ckeys
                self._csr, self._csc = big_csr, big_csc
                stats["created"] += g_delta
            return
        # recount bookkeeping (strategy == "recount")
        if remove:
            stats["destroyed"] += delta
        else:
            stats["created"] += delta

    def _recount_to(self, new_keys: np.ndarray, new_ckeys: np.ndarray) -> None:
        """Swap in ``new_keys`` and recompute every count from scratch."""
        csr, csc = self._structures_for(new_keys, new_ckeys)
        before = self.count
        self._keys, self._ckeys = new_keys, new_ckeys
        self._csr, self._csc = csr, csc
        self._count_from(self.to_graph())
        # stash the phase delta for the caller's stats bookkeeping
        self._last_recount_delta = abs(self.count - before)

    def _count_from(self, graph: BipartiteGraph) -> None:
        """Set Ξ and both per-vertex arrays from scratch for ``graph``.

        Ξ comes from the per-left vector — every butterfly holds exactly
        two left vertices, so ``Σ per_left = 2Ξ`` — with no extra wedge
        pass of its own.
        """
        if graph.n_edges:
            from repro.core.local_counts import vertex_butterfly_counts

            self._per_left = vertex_butterfly_counts(graph, "left")
            self._per_right = vertex_butterfly_counts(graph, "right")
        else:
            self._per_left = np.zeros(self.n_left, dtype=COUNT_DTYPE)
            self._per_right = np.zeros(self.n_right, dtype=COUNT_DTYPE)
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
        ckeys = self._col_keys(state["keys"])
        csr, csc = self._structures_for(state["keys"], ckeys)
        self._keys, self._ckeys = state["keys"], ckeys
        self._csr, self._csc = csr, csc
        self.count = state["count"]
        self._per_left = state["per_left"]
        self._per_right = state["per_right"]

    @classmethod
    def from_snapshot(cls, data: bytes) -> "StreamingButterflyCounter":
        """Reconstruct a counter directly from snapshot bytes."""
        from repro.core.stream.snapshot import decode_snapshot

        state = decode_snapshot(data)
        counter = cls(
            BipartiteGraph.empty(state["n_left"], state["n_right"])
        )
        counter.restore(data)
        return counter

    def __repr__(self) -> str:
        return (
            f"StreamingButterflyCounter(|V1|={self.n_left}, "
            f"|V2|={self.n_right}, |E|={self.n_edges}, "
            f"butterflies={self.count})"
        )
