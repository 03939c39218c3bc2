"""Shared dtype and typing conventions for the :mod:`repro` package.

The whole library operates on *pattern* (0/1) sparse matrices stored as
compressed index arrays, so the only dtypes that matter are:

``INDEX_DTYPE``
    The dtype used for ``indptr``/``indices`` arrays of compressed sparse
    structures.  ``int64`` everywhere: graphs in this library are far too
    small for the memory savings of ``int32`` to matter, and a single wide
    dtype removes an entire class of silent-overflow and mixed-dtype bugs.

``COUNT_DTYPE``
    The dtype used for wedge/butterfly accumulators.  Butterfly counts grow
    like the square of wedge counts, so accumulation is always performed in
    ``int64`` and surfaced to callers as built-in Python ``int`` (which is
    arbitrary precision) at API boundaries.

``PAIR_DTYPE``
    ``int32`` storage for the tip peel's same-side pair table (partner
    row slots, the slot → vertex map, and each pair's loss C(c, 2) when
    the largest possible one fits).  Storage only, never an accumulator:
    the table exists only under a byte cap that keeps every stored id
    below 2³¹, each multiplicity is widened to ``COUNT_DTYPE`` before its
    C(c, 2) product, and each loss before it is summed or subtracted.

``RANK_DTYPE``
    ``int32`` storage for the vertex-priority kernels' rank-space ids
    and packed sort and panel keys, chosen per array only when its
    largest value fits (:mod:`repro.core.priority`).  Never an
    accumulator or a gather offset: those stay int64, and a key is
    widened before it is used as an index or shifted past its range.

``BITMAP_DTYPE``
    ``uint8`` bytes of the stream probe's per-phase row bitmap, 8
    adjacency bits each.  Storage only: a byte is only shifted and
    masked down to one bit, never summed or counted.

It also holds the one process-pool width default, :func:`pool_width`,
which the executor, the planner and the parallel entry point share.
"""

from __future__ import annotations

import os

import numpy as np

#: dtype of all ``indptr`` / ``indices`` arrays.
INDEX_DTYPE = np.int64

#: dtype of all wedge / butterfly accumulators.
COUNT_DTYPE = np.int64

#: dtype of the pair table's partner slots, slot map and narrow losses (storage only).
PAIR_DTYPE = np.int32

#: dtype of the priority kernels' rank-space ids and keys, where they fit.
RANK_DTYPE = np.int32

#: dtype of bit-packed adjacency rows: 8 bits per byte (storage only).
BITMAP_DTYPE = np.uint8

#: Widest default pool: the paper's thread count (Fig. 11).
DEFAULT_MAX_WORKERS = 6

#: numpy array aliases used in annotations throughout the package.
IndexArray = np.ndarray
CountArray = np.ndarray
BoolArray = np.ndarray


def as_index_array(values, *, copy: bool = False) -> np.ndarray:
    """Coerce ``values`` to a 1-D contiguous :data:`INDEX_DTYPE` array.

    Parameters
    ----------
    values:
        Anything ``np.asarray`` accepts.
    copy:
        Force a copy even when ``values`` already has the right dtype.

    Returns
    -------
    numpy.ndarray
        1-D ``int64`` array.

    Raises
    ------
    ValueError
        If ``values`` is not 1-dimensional.
    """
    arr = np.array(values, dtype=INDEX_DTYPE, copy=copy or None)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D index array, got shape {arr.shape!r}")
    return np.ascontiguousarray(arr)


def pool_width(n_workers: int | None = None) -> int:
    """``n_workers``, or the host's CPU count capped at
    :data:`DEFAULT_MAX_WORKERS` when it is ``None``.

    Raises
    ------
    ValueError
        If ``n_workers`` is below 1.
    """
    if n_workers is None:
        return min(os.cpu_count() or 1, DEFAULT_MAX_WORKERS)
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return int(n_workers)
