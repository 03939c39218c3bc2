"""Vectorised kernels shared by the counting and peeling algorithms.

These are the hot inner loops of the package, written as whole-array NumPy
operations per the HPC guidance (no per-element Python loops):

- :func:`gather_slices` — fetch and concatenate many compressed slices at
  once, the sparse analogue of a block gather.  Every wedge-enumeration in
  the package bottoms out here.
- :func:`choose2_sum` / :func:`choose2` — the Σ C(x, 2) reduction that turns
  wedge counts into butterfly counts (``C(n,2)`` distinct wedge pairs form
  ``C(n,2)`` butterflies, Section II of the paper).
- :func:`keyed_choose2_sum` — Σ C(mult, 2) over a whole panel's composite
  wedge keys, by one histogram or one in-place sort.
- :func:`panel_choose2_sum` / :func:`panel_choose2_per_owner` — the same
  over a pivot panel's (owner, endpoint) wedge list; each call picks its
  evaluation (``sort``, ``bincount`` or ``scratch``) from the panel's
  shape, and every branch wins on some input.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro._types import COUNT_DTYPE, INDEX_DTYPE

__all__ = [
    "gather_slices",
    "choose2",
    "choose2_sum",
    "segment_sums",
    "keyed_choose2_sum",
    "run_starts",
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


# ----------------------------------------------------------------------
# keyed reductions (Σ C(mult, 2) over composite wedge keys)
# ----------------------------------------------------------------------

#: Largest key space (entry count) the ``bincount`` branch will
#: materialise: 2²² int64 entries = 32 MiB of transient histogram.
#: Read at call time, so a test can lower it to force the other branches.
DEFAULT_KEYSPACE_CAP: int = 1 << 22


def _histogram_pays(keyspace: int, n_keys: int) -> bool:
    """Whether a dense histogram of the key space beats sorting the keys.

    The histogram pays O(keyspace) zeroing and scanning, so it wins only
    when the keys are at least commensurate with the space they spread
    over (and the space is within :data:`DEFAULT_KEYSPACE_CAP`).
    """
    return keyspace <= DEFAULT_KEYSPACE_CAP and keyspace <= max(4 * n_keys, 1 << 16)


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Offsets where each run of equal values of a sorted array starts
    (none for an empty one)."""
    flags = np.empty(keys.size, dtype=bool)
    flags[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=flags[1:])
    return np.flatnonzero(flags)


def keyed_choose2_sum(keys: np.ndarray, keyspace: int, n_groups: int = 1) -> np.ndarray:
    """``Σ_k C(mult(k), 2)`` over the distinct values k of a key array, per group.

    ``keys`` is int32 or int64 in ``[0, keyspace)`` (int32 sorts about
    twice as fast); group g holds the ``keyspace // n_groups`` keys from
    ``g · keyspace // n_groups`` on.  The multiplicities come from a ``bincount`` of the whole key space when
    :func:`_histogram_pays`, else from the run lengths of ``keys`` sorted
    **in place** (the caller's array is consumed); the branch is recorded
    as ``kernels.panel.method.<branch>``.  One group sums to
    (Σ mult² − W) / 2 over the W keys, Σ mult² one exact int64 ``np.dot``.
    Returns the int64 sum of each group.
    """
    n_keys = keys.size
    out = np.zeros(n_groups, dtype=COUNT_DTYPE)
    if n_keys == 0:
        return out
    dense = _histogram_pays(keyspace, n_keys)
    if obs._enabled:
        _record_panel_reduction("bincount" if dense else "sort", keys)
    if dense:
        mult = np.bincount(keys, minlength=keyspace)
    else:
        keys.sort()
        starts = run_starts(keys)
        mult = np.diff(starts, append=n_keys)
    if n_groups == 1:
        out[0] = (np.dot(mult, mult) - n_keys) // 2
    elif dense:
        out[:] = choose2(mult).reshape(n_groups, -1).sum(axis=1, dtype=COUNT_DTYPE)
    else:
        np.add.at(out, keys[starts] // (keyspace // n_groups), choose2(mult))
    return out


def _panel_reduction(n_pivots: int, n: int, n_items: int) -> str:
    """The reduction for a panel's (owner, endpoint) wedge list of this shape.

    ``"bincount"`` / ``"sort"`` — :func:`keyed_choose2_sum` over the keys
    ``owner · n + endpoint``.  ``"scratch"`` — Chiba–Nishizeki discipline:
    per owner segment, scatter the endpoints into a length-``n`` dense
    accumulator, reduce with Σ C(y,2) = (Σy² − Σy)/2 and zero the touched
    entries.  Its interpreter loop costs ~µs per owner, so it takes only
    panels the histogram does not, with at least 256 wedges per owner.
    On the Fig. 9 stand-ins' ``blocked`` and serial ``wedge`` panels the
    keyed sort won by up to 42% at 76–184 wedges per owner, read −23% to
    +10% against ``scratch`` at 263–325, and lost by up to 48% at 500–790
    (EXPERIMENTS.md).
    """
    if _histogram_pays(n_pivots * n, n_items):
        return "bincount"
    return "sort" if n_items < 256 * n_pivots else "scratch"


def _record_panel_reduction(chosen: str, *arrays: np.ndarray) -> None:
    """Per-kernel op/byte counters keyed by the chosen reduction branch."""
    if obs._enabled:
        obs.inc("kernels.panel.calls")
        obs.inc(f"kernels.panel.method.{chosen}")
        obs.inc("kernels.panel.wedges", int(arrays[-1].size))
        obs.inc("kernels.panel.bytes", sum(int(a.nbytes) for a in arrays))


def _panel_reduce(
    owners_local: np.ndarray,
    endpoints: np.ndarray,
    n_pivots: int,
    n: int,
    scratch: np.ndarray | None,
    n_groups: int,
) -> np.ndarray:
    """A panel's Σ C(mult, 2) in ``n_groups`` (1 or ``n_pivots``) int64 sums."""
    owners_local = np.asarray(owners_local)
    endpoints = np.asarray(endpoints)
    if _panel_reduction(n_pivots, n, endpoints.size) != "scratch":
        keys = np.multiply(owners_local, n, dtype=COUNT_DTYPE)
        keys += endpoints
        return keyed_choose2_sum(keys, n_pivots * n, n_groups)
    _record_panel_reduction("scratch", owners_local, endpoints)
    if scratch is None:
        scratch = np.zeros(n, dtype=COUNT_DTYPE)
    out = np.zeros(n_pivots, dtype=COUNT_DTYPE)
    bounds = np.searchsorted(
        owners_local, np.arange(n_pivots + 1, dtype=INDEX_DTYPE), side="left"
    )
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
    sums = _panel_reduce(owners_local, endpoints, n_pivots, n, scratch, 1)
    return int(sums.sum(dtype=COUNT_DTYPE))


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
    return _panel_reduce(owners_local, endpoints, n_pivots, n, scratch, n_pivots)


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
