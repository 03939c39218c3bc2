"""Vectorised kernels shared by the counting and peeling algorithms.

These are the hot inner loops of the package, written as whole-array NumPy
operations per the HPC guidance (no per-element Python loops):

- :func:`gather_slices` — fetch and concatenate many compressed slices at
  once, the sparse analogue of a block gather.  Every wedge-enumeration in
  the package bottoms out here.
- :func:`multiplicity_counts` — multiset → (values, counts), used to turn a
  wedge list into per-endpoint wedge counts.
- :func:`choose2_sum` / :func:`choose2` — the Σ C(x, 2) reduction that turns
  wedge counts into butterfly counts (``C(n,2)`` distinct wedge pairs form
  ``C(n,2)`` butterflies, Section II of the paper).
- :func:`spmv_pattern` — y = A·x for a pattern matrix and dense vector.
- :func:`panel_choose2_sum` / :func:`panel_choose2_per_owner` — the fused
  Σ C(·, 2) reduction over a whole pivot panel's (owner, endpoint) wedge
  list.  Each call picks its evaluation (``sort``, ``bincount`` or
  ``scratch``) from the panel's shape; every branch wins on some input,
  so there is no caller-side switch.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro._types import COUNT_DTYPE, INDEX_DTYPE
from repro.sparsela._compressed import CompressedPattern

__all__ = [
    "gather_slices",
    "multiplicity_counts",
    "choose2",
    "choose2_sum",
    "spmv_pattern",
    "spmv_pattern_transposed",
    "segment_sums",
    "panel_choose2_sum",
    "panel_choose2_per_owner",
    "DEFAULT_KEYSPACE_CAP",
]


def gather_slices(
    indptr: np.ndarray, indices: np.ndarray, ids: np.ndarray
) -> np.ndarray:
    """Concatenate ``indices[indptr[i]:indptr[i+1]]`` for every ``i`` in ``ids``.

    Fully vectorised: builds a single gather-index array with the standard
    ``repeat + cumsum`` trick, then performs one fancy-index read.  The
    output preserves the order of ``ids`` and the order within each slice.

    This is the workhorse of wedge enumeration: for a vertex ``v`` with
    neighbourhood ``N(v)``, ``gather_slices(other.indptr, other.indices,
    N(v))`` is the multiset of wedge endpoints reachable from ``v``.
    """
    ids = np.asarray(ids, dtype=INDEX_DTYPE)
    if ids.size == 0:
        return np.empty(0, dtype=indices.dtype)
    starts = indptr[ids]
    lengths = indptr[ids + 1] - starts
    total = int(lengths.sum(dtype=INDEX_DTYPE))
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    # offsets[k] = position in the output where slice k begins
    offsets = np.zeros(len(ids), dtype=INDEX_DTYPE)
    np.cumsum(lengths[:-1], out=offsets[1:])
    # gather index: for output position p in slice k,
    #   src[p] = starts[k] + (p - offsets[k])
    src = np.repeat(starts - offsets, lengths)
    src += np.arange(total, dtype=INDEX_DTYPE)
    out = indices[src]
    if obs._enabled:  # one attr load + branch on the disabled path
        obs.inc("kernels.gather.calls")
        obs.inc("kernels.gather.items", total)
        obs.inc("kernels.gather.bytes", int(out.nbytes + src.nbytes))
    return out


def multiplicity_counts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values and their multiplicities for a 1-D integer multiset.

    Equivalent to ``np.unique(values, return_counts=True)`` but kept as a
    named kernel so the algorithms read like the math ("wedge counts per
    endpoint") and so the implementation can be swapped wholesale.
    """
    if values.size == 0:
        return values, np.empty(0, dtype=COUNT_DTYPE)
    uniq, counts = np.unique(values, return_counts=True)
    return uniq, counts.astype(COUNT_DTYPE)


def choose2(x: np.ndarray) -> np.ndarray:
    """Elementwise ``C(x, 2) = x·(x−1)/2`` in exact int64 arithmetic."""
    x = np.asarray(x, dtype=COUNT_DTYPE)
    return (x * (x - 1)) // 2


def choose2_sum(x: np.ndarray) -> int:
    """``Σ_i C(x_i, 2)`` as a Python int.

    This is the reduction at the heart of every butterfly counter: if
    ``x_u`` is the number of distinct wedges between a fixed vertex and
    vertex ``u``, then ``C(x_u, 2)`` is the number of butterflies they close.
    """
    if np.asarray(x).size == 0:
        return 0
    x = np.asarray(x, dtype=COUNT_DTYPE)
    return int(np.sum(x * (x - 1)) // 2)


def spmv_pattern(a: CompressedPattern, x: np.ndarray) -> np.ndarray:
    """Dense ``y = A·x`` for a compressed pattern matrix.

    Works for either format: conceptually sums ``x`` over the stored entries
    of each row.  For CSR this is a segmented sum over slices; for CSC it is
    a scatter-add of ``x[j]`` into the rows of column ``j``.
    """
    x = np.asarray(x)
    m, n = a.shape
    if x.shape != (n,):
        raise ValueError(f"x must have shape ({n},), got {x.shape}")
    out_dtype = np.result_type(x.dtype, COUNT_DTYPE) if x.dtype.kind in "iub" else x.dtype
    if a.MAJOR_AXIS == 0:  # CSR: y_i = sum of x at column ids of row i
        vals = x[a.indices]
        return segment_sums(vals, a.indptr, out_dtype)
    # CSC: y += x[j] at each stored row id of column j
    y = np.zeros(m, dtype=out_dtype)
    contrib = np.repeat(x, np.diff(a.indptr))
    np.add.at(y, a.indices, contrib)
    return y


def spmv_pattern_transposed(a: CompressedPattern, x: np.ndarray) -> np.ndarray:
    """Dense ``y = Aᵀ·x`` for a compressed pattern matrix."""
    x = np.asarray(x)
    m, n = a.shape
    if x.shape != (m,):
        raise ValueError(f"x must have shape ({m},), got {x.shape}")
    out_dtype = np.result_type(x.dtype, COUNT_DTYPE) if x.dtype.kind in "iub" else x.dtype
    if a.MAJOR_AXIS == 1:  # CSC: (Aᵀx)_j = sum of x at row ids of column j
        vals = x[a.indices]
        return segment_sums(vals, a.indptr, out_dtype)
    y = np.zeros(n, dtype=out_dtype)
    contrib = np.repeat(x, np.diff(a.indptr))
    np.add.at(y, a.indices, contrib)
    return y


# ----------------------------------------------------------------------
# fused panel reductions (Σ C(·, 2) over (owner, endpoint) keys)
# ----------------------------------------------------------------------

#: Largest ``n_pivots × n`` key space (entry count) the ``bincount`` branch
#: will materialise: 2²² int64 entries = 32 MiB of transient histogram.
#: Read at call time, so a test can lower it to force the other branches.
DEFAULT_KEYSPACE_CAP: int = 1 << 22


def _panel_reduction(n_pivots: int, n: int, n_items: int) -> str:
    """The panel reduction for a wedge list of this shape.

    ``"bincount"`` — scatter the composite keys into a dense histogram of
    the whole ``n_pivots × n`` key space; sort-free, one pass over the
    wedges plus one over the key space.  Chosen when the key space is
    within :data:`DEFAULT_KEYSPACE_CAP` and commensurate with the wedges.

    ``"sort"`` — ``np.unique`` over composite keys; O(W log W), excellent
    locality.  Chosen for sparse panels whose per-owner segments are too
    small to amortise the scratch loop.

    ``"scratch"`` — Chiba–Nishizeki discipline: per owner segment, scatter
    the endpoints into a length-``n`` dense accumulator, reduce with
    Σ C(y,2) = (Σy² − Σy)/2 and zero the touched entries.  Sort-free with
    O(n) transient memory; chosen otherwise.
    """
    keyspace = n_pivots * n
    # bincount pays O(keyspace) zeroing + scanning: profitable only when the
    # wedge list is at least commensurate with the key space it spreads over.
    if keyspace <= DEFAULT_KEYSPACE_CAP and keyspace <= max(4 * n_items, 1 << 16):
        return "bincount"
    # scratch loops once per owner segment in the interpreter (~µs each);
    # on sparse panels — many owners, a handful of wedges apiece — the
    # vectorised sort reduction wins despite its O(W log W) term.  The
    # crossover sits around 64 wedges per owner (measured; either side of
    # it the loser degrades gently).
    if n_items < 64 * n_pivots:
        return "sort"
    return "scratch"


def _record_panel_reduction(
    chosen: str, owners_local: np.ndarray, endpoints: np.ndarray
) -> None:
    """Per-kernel op/byte counters keyed by the chosen reduction branch."""
    if obs._enabled:
        obs.inc("kernels.panel.calls")
        obs.inc(f"kernels.panel.method.{chosen}")
        obs.inc("kernels.panel.wedges", int(endpoints.size))
        obs.inc(
            "kernels.panel.bytes",
            int(np.asarray(endpoints).nbytes + np.asarray(owners_local).nbytes),
        )


def _owner_segment_bounds(owners_local: np.ndarray, n_pivots: int) -> np.ndarray:
    """Start offsets of each owner's contiguous run (length ``n_pivots+1``).

    ``owners_local`` must be non-decreasing (wedge lists are generated in
    pivot order); owners with no wedges yield empty segments.
    """
    return np.searchsorted(
        owners_local, np.arange(n_pivots + 1, dtype=INDEX_DTYPE), side="left"
    )


def panel_choose2_sum(
    owners_local: np.ndarray,
    endpoints: np.ndarray,
    n_pivots: int,
    n: int,
    scratch: np.ndarray | None = None,
) -> int:
    """``Σ_{(p,u)} C(mult(p, u), 2)`` over a panel's wedge list.

    ``owners_local`` (panel-local pivot ids, non-decreasing) and
    ``endpoints`` (same-side endpoint ids in ``[0, n)``) together form the
    multiset of wedges of a pivot panel; the reduction counts, for every
    distinct (pivot, endpoint) pair, ``C(multiplicity, 2)`` butterflies.

    The evaluation branch comes from the panel's shape (see
    :func:`_panel_reduction`; the ``kernels.panel.method.<branch>``
    counter records it).  ``scratch`` optionally provides a reusable
    zeroed length-``n`` int64 accumulator for the ``scratch`` branch
    (returned zeroed again).
    """
    owners_local = np.asarray(owners_local)
    endpoints = np.asarray(endpoints)
    if endpoints.size == 0:
        return 0
    chosen = _panel_reduction(n_pivots, n, endpoints.size)
    if obs._enabled:
        _record_panel_reduction(chosen, owners_local, endpoints)
    if chosen == "sort":
        keys = owners_local.astype(COUNT_DTYPE) * np.int64(n) + endpoints
        _, counts = np.unique(keys, return_counts=True)
        counts = counts.astype(COUNT_DTYPE)
        return int(np.sum(counts * (counts - 1)) // 2)
    if chosen == "bincount":
        keys = owners_local.astype(COUNT_DTYPE) * np.int64(n) + endpoints
        counts = np.bincount(keys).astype(COUNT_DTYPE, copy=False)
        return int(np.sum(counts * (counts - 1)) // 2)
    # scratch: per-owner dense accumulation, (Σy² − Σy)/2 per owner
    if scratch is None:
        scratch = np.zeros(n, dtype=COUNT_DTYPE)
    bounds = _owner_segment_bounds(owners_local, n_pivots)
    total = 0
    for k in range(n_pivots):
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        if hi <= lo:
            continue
        seg = endpoints[lo:hi]
        np.add.at(scratch, seg, 1)
        sum_sq = int(scratch[seg].sum())
        scratch[seg] = 0
        total += (sum_sq - (hi - lo)) // 2
    return total


def panel_choose2_per_owner(
    owners_local: np.ndarray,
    endpoints: np.ndarray,
    n_pivots: int,
    n: int,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Per-owner ``Σ_u C(mult(p, u), 2)`` for a panel's wedge list.

    Same contract as :func:`panel_choose2_sum` but returns the length-
    ``n_pivots`` int64 vector of per-pivot butterfly contributions — the
    reduction behind the per-vertex (local-count) panel kernels.
    """
    owners_local = np.asarray(owners_local)
    endpoints = np.asarray(endpoints)
    out = np.zeros(n_pivots, dtype=COUNT_DTYPE)
    if endpoints.size == 0:
        return out
    chosen = _panel_reduction(n_pivots, n, endpoints.size)
    if obs._enabled:
        _record_panel_reduction(chosen, owners_local, endpoints)
    if chosen == "sort":
        keys = owners_local.astype(COUNT_DTYPE) * np.int64(n) + endpoints
        uniq, counts = np.unique(keys, return_counts=True)
        counts = counts.astype(COUNT_DTYPE)
        contrib = (counts * (counts - 1)) // 2
        np.add.at(out, (uniq // n).astype(np.int64), contrib)
        return out
    if chosen == "bincount":
        keys = owners_local.astype(COUNT_DTYPE) * np.int64(n) + endpoints
        counts = np.bincount(keys, minlength=n_pivots * n)
        counts = counts.astype(COUNT_DTYPE, copy=False).reshape(n_pivots, n)
        contrib = (counts * (counts - 1)) // 2
        return contrib.sum(axis=1)
    if scratch is None:
        scratch = np.zeros(n, dtype=COUNT_DTYPE)
    bounds = _owner_segment_bounds(owners_local, n_pivots)
    for k in range(n_pivots):
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        if hi <= lo:
            continue
        seg = endpoints[lo:hi]
        np.add.at(scratch, seg, 1)
        sum_sq = int(scratch[seg].sum())
        scratch[seg] = 0
        out[k] = (sum_sq - (hi - lo)) // 2
    return out


def segment_sums(values: np.ndarray, indptr: np.ndarray, dtype=None) -> np.ndarray:
    """Sum ``values`` within each ``indptr`` segment.

    ``out[k] = values[indptr[k]:indptr[k+1]].sum()``.  Implemented with a
    cumulative sum so it is one pass regardless of segment count; empty
    segments yield 0.
    """
    values = np.asarray(values)
    if dtype is None:
        dtype = np.result_type(values.dtype, COUNT_DTYPE)
    if values.size == 0:
        return np.zeros(len(indptr) - 1, dtype=dtype)
    csum = np.zeros(values.size + 1, dtype=dtype)
    np.cumsum(values, out=csum[1:])
    return csum[indptr[1:]] - csum[indptr[:-1]]
