"""A set-associative LRU cache simulator for probing the family's locality.

Section V observes that the suffix-referencing members (invariants
2/4/6/8) ran measurably faster than the prefix members in the authors' C
implementation, and attributes it to their "look-ahead" structure.  Our
NumPy port does identical element work either way (see EXPERIMENTS.md), so
the hypothesis cannot be tested by timing here — but it *can* be tested by
replaying the algorithms' memory access streams through a cache model.

:func:`simulate_invariant_cache` reconstructs, exactly, the sequence of
``indices``-array elements a spmv sweep touches (the pivot's neighbour
slice, then the reference partition's contiguous range) and feeds the
corresponding cache-line ids through :class:`LRUCache`, yielding hit
rates per invariant.  The cache-locality benchmark runs all eight members
through the same model and reports whether LRU locality separates the
suffix from the prefix group — turning the paper's speculation into a
measurable model question.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.family import (
    Reference,
    matrices_for_side,
    pivot_order,
    resolve_invariant,
)
from repro.graphs.bipartite import BipartiteGraph

__all__ = [
    "LRUCache",
    "CacheStats",
    "simulate_invariant_cache",
]


@dataclass
class CacheStats:
    """Counters from one simulated run."""

    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        """Number of missed accesses."""
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        """hits / accesses (0.0 for an empty run)."""
        return self.hits / self.accesses if self.accesses else 0.0


class LRUCache:
    """A set-associative LRU cache over abstract line ids.

    Parameters
    ----------
    n_sets:
        Number of cache sets (a power of two is conventional but not
        required; lines map to ``line % n_sets``).
    ways:
        Associativity (lines per set).  ``n_sets=1`` gives fully
        associative LRU of capacity ``ways``.

    The simulator works on *line ids*; callers convert element indices to
    lines with their chosen line size.
    """

    def __init__(self, n_sets: int, ways: int) -> None:
        if n_sets < 1 or ways < 1:
            raise ValueError("n_sets and ways must be >= 1")
        self.n_sets = n_sets
        self.ways = ways
        # per set: list of line ids, most-recently-used last
        self._sets: list[list[int]] = [[] for _ in range(n_sets)]
        self.stats = CacheStats()

    @property
    def capacity_lines(self) -> int:
        """Total lines the cache can hold."""
        return self.n_sets * self.ways

    def access(self, line: int) -> bool:
        """Touch one line; returns True on hit."""
        s = self._sets[line % self.n_sets]
        self.stats.accesses += 1
        try:
            s.remove(line)
            s.append(line)
            self.stats.hits += 1
            return True
        except ValueError:
            s.append(line)
            if len(s) > self.ways:
                s.pop(0)
            return False

    def access_run(self, lines: np.ndarray) -> None:
        """Touch a sequence of line ids (deduplicating *consecutive*
        repeats, which a real sequential scan coalesces for free)."""
        lines = np.asarray(lines)
        if lines.size == 0:
            return
        keep = np.empty(lines.shape, dtype=bool)
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        for line in lines[keep]:
            self.access(int(line))


def simulate_invariant_cache(
    graph: BipartiteGraph,
    invariant,
    cache_lines: int = 512,
    line_elements: int = 8,
    ways: int = 8,
    max_pivots: int | None = None,
) -> CacheStats:
    """Replay a spmv sweep's index-array accesses through an LRU cache.

    Per pivot, the spmv update touches (a) the pivot's own slice of the
    compressed ``indices`` array and (b) the reference partition's
    contiguous ``indices`` range (prefix ``[0, indptr[p])`` or suffix
    ``[indptr[p+1], nnz)``), in address order.  Each group of
    ``line_elements`` consecutive array elements shares a cache line.

    Parameters
    ----------
    graph, invariant:
        The workload and the family member.
    cache_lines:
        Total capacity in lines (spread over ``cache_lines / ways`` sets).
    line_elements:
        Elements per line (8 ≈ a 64-byte line of int64).
    ways:
        Set associativity.
    max_pivots:
        Simulate only the first N pivots of the sweep (the python-level
        simulator is slow; prefixes of the sweep preserve the structural
        contrast being probed).

    Returns
    -------
    CacheStats
        Hits/accesses over the replayed stream.
    """
    inv = resolve_invariant(invariant)
    pivot_major, _ = matrices_for_side(graph, inv.side)
    indptr = pivot_major.indptr
    nnz = pivot_major.nnz
    n = pivot_major.major_dim
    n_sets = max(1, cache_lines // ways)
    cache = LRUCache(n_sets=n_sets, ways=ways)
    order = list(pivot_order(n, inv.traversal))
    if max_pivots is not None:
        order = order[:max_pivots]
    for pivot in order:
        # (a) the pivot's neighbour slice
        lo, hi = int(indptr[pivot]), int(indptr[pivot + 1])
        if hi > lo:
            cache.access_run(np.arange(lo, hi) // line_elements)
        # (b) the reference partition scan
        if inv.reference is Reference.PREFIX:
            rlo, rhi = 0, int(indptr[pivot])
        else:
            rlo, rhi = int(indptr[pivot + 1]), nnz
        if rhi > rlo:
            cache.access_run(np.arange(rlo, rhi) // line_elements)
    return cache.stats
