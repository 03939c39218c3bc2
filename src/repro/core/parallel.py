"""Parallel butterfly counting (Section V's multi-threaded evaluation).

Every member of the family is embarrassingly parallel over its pivots: the
per-pivot update counts the wedge-point pairs {pivot, u} with u in the
pivot's positional prefix (A0) or suffix (A2), and those pair sets are
disjoint across pivots — so disjoint pivot ranges contribute disjoint
butterfly sets and the totals simply add, regardless of the order the
ranges run in.  This is exactly what the paper exploits for its 6-thread
numbers (Fig. 11); here the same decomposition runs on one of two
executors, both thin wrappers over :class:`repro.parallel.ButterflyExecutor`:

- ``"shared"`` (default) — a warm process pool whose workers attach the
  graph's compressed arrays zero-copy from one POSIX shared-memory
  segment; the pool persists across calls and stands in for the paper's
  OpenMP threads.  Where shared memory is unavailable the call falls
  back to ``"serial"`` (observable as ``parallel.shared_fallback``), or
- ``"serial"`` — the same ``n_workers ×``
  :data:`~repro.parallel.executor.CHUNKS_PER_WORKER` range decomposition
  run in-process, used by tests to validate the tiling independently of
  pool plumbing.

Both sequential strategies are supported so the parallel numbers are
directly comparable to the sequential ones: ``"spmv"`` (the paper-literal
cost model) and ``"scratch"`` (the wedge-optimal update), plus ``"wedge"``
(the fused panel kernel over wedge-capped shards).  Each is one row of
the strategy table below; the pool reads the row, not the name.

Work is split into contiguous pivot ranges balanced by *estimated work*
(exact wedge expansions for ``scratch`` and ``wedge``; the triangular
reference-partition scan for ``spmv``), not by pivot count:
power-law graphs concentrate most wedges in a few hub vertices, and naive
equal-width ranges would leave most workers idle.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from repro import obs
from repro._types import pool_width
from repro.core import blocked
from repro.core.family import _PIVOT_KERNELS, Invariant, Reference, Side
from repro.core.workinfo import pivot_work_estimate, spmv_scan_lengths
from repro.graphs.bipartite import BipartiteGraph

__all__ = [
    "count_butterflies_parallel",
    "count_range",
    "pivot_work_estimate",
    "spmv_scan_lengths",
    "balanced_ranges",
    "wedge_shards",
]


def balanced_ranges(work: np.ndarray, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(len(work))`` into ≤ ``n_chunks`` contiguous ranges of
    roughly equal total ``work``.

    Empty ranges are dropped; the union of the returned ranges is always
    the full index range (so counts tile exactly).

    Integer work is accumulated in exact int64 arithmetic — nnz-scale
    totals exceed 2⁵³ long before they exceed 2⁶³, and a float64 cumsum
    would silently stop resolving individual pivots there.
    """
    work = np.asarray(work)
    n = len(work)
    if n == 0:
        return []
    n_chunks = max(1, min(n_chunks, n))
    exact = work.dtype.kind in "iub"
    acc_dtype = np.int64 if exact else np.float64
    csum = np.zeros(n + 1, dtype=acc_dtype)
    np.cumsum(work.astype(acc_dtype, copy=False), out=csum[1:])
    total = csum[-1]
    if total == 0:
        # no work anywhere: fall back to equal-width ranges
        edges = np.linspace(0, n, n_chunks + 1).astype(int)
    else:
        # Greedy remaining-work targets.  Equal-spaced global targets
        # collapse behind a hub pivot: once one pivot swallows several
        # fair shares, every later target is already exceeded and the
        # whole tail lands in one straggler chunk.  Aiming each cut at
        # ⌈remaining work / remaining chunks⌉ re-spreads the tail instead.
        edges = np.zeros(n_chunks + 1, dtype=np.int64)
        edges[-1] = n
        prev = 0
        for k in range(1, n_chunks):
            remaining_chunks = n_chunks - k + 1
            if exact:
                done = int(csum[prev])
                remaining = int(total) - done
                target = done + -(-remaining // remaining_chunks)
            else:
                done = float(csum[prev])
                target = done + (float(total) - done) / remaining_chunks
            cut = int(np.searchsorted(csum, target, side="left"))
            prev = max(prev, min(cut, n))
            edges[k] = prev
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            out.append((int(lo), int(hi)))
    return out


def wedge_shards(work: np.ndarray, n_chunks: int) -> list[tuple[int, int]]:
    """Cut the pivot space into contiguous shards of roughly equal wedge
    work, each additionally capped at
    :data:`~repro.core.blocked.DEFAULT_PLAN_BLOCK_BUDGET` wedge expansions
    (read at call time).

    First pass is :func:`balanced_ranges` over the exact per-pivot wedge
    work (``pivot_work_estimate`` prefix sums); any shard whose wedge set
    would exceed the cache-resident budget is re-tiled with
    :func:`repro.core.blocked.work_bounded_panels`, so a hub pivot never
    drags a multi-megabyte owner/endpoint expansion into one worker.  The
    shards tile ``range(len(work))`` exactly, in order.
    """
    budget = blocked.DEFAULT_PLAN_BLOCK_BUDGET
    work = np.asarray(work)
    shards: list[tuple[int, int]] = []
    for lo, hi in balanced_ranges(work, n_chunks):
        chunk = work[lo:hi]
        if int(chunk.sum(dtype=np.int64)) <= budget:
            shards.append((lo, hi))
            continue
        shards.extend(
            (lo + p_lo, lo + p_hi)
            for p_lo, p_hi in blocked.work_bounded_panels(chunk, budget)
        )
    return shards


def _wedge_work(pm, co, ref) -> np.ndarray:
    return pivot_work_estimate(pm, co)


#: One pool strategy: its per-pivot ``work(pivot_major, complementary,
#: reference)``, its ``tiling(work, n_chunks)`` into ranges, the
#: per-worker ``state(pivot_major)`` every range reuses (and leaves as it
#: found it), and its range ``count(pivot_major, complementary, lo, hi,
#: reference, state)``.
_PoolStrategy = namedtuple("_PoolStrategy", "work tiling state count")


def _per_pivot(strategy: str, work) -> _PoolStrategy:
    """The row that sweeps a range pivot by pivot with ``strategy``'s
    sequential kernel and buffers (:mod:`repro.core.family`)."""
    state, at_pivot = _PIVOT_KERNELS[strategy]

    def count(pm, co, lo, hi, ref, buffers) -> int:
        return sum(at_pivot(pm, co, p, ref, buffers) for p in range(lo, hi))

    return _PoolStrategy(work, balanced_ranges, state, count)


_POOL_STRATEGIES = {
    "scratch": _per_pivot("scratch", _wedge_work),
    # the reference-partition scan, triangular in the pivot index, plus
    # the pivot's own degree (the marker scatter)
    "spmv": _per_pivot(
        "spmv", lambda pm, co, ref: spmv_scan_lengths(pm, ref) + pm.degrees()
    ),
    "wedge": _PoolStrategy(
        _wedge_work, wedge_shards, _PIVOT_KERNELS["scratch"][0],
        # one fused sort-free panel reduction over the whole shard's
        # wedge set: no per-pivot Python loop at all
        lambda pm, co, lo, hi, ref, acc: int(
            blocked.panel_butterflies(pm, co, lo, hi, ref, scratch=acc)
        ),
    ),
}


def _pool_strategy(strategy: str) -> _PoolStrategy:
    """The table row of ``strategy``: the one pool strategy check."""
    row = _POOL_STRATEGIES.get(strategy)
    if row is None:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of "
            f"{tuple(_POOL_STRATEGIES)}"
        )
    return row


def count_range(
    pivot_major,
    complementary,
    lo: int,
    hi: int,
    reference: Reference,
    strategy: str,
    state,
) -> int:
    """Count the contribution of pivots [lo, hi) — the unit of parallel work.

    ``state`` is the strategy's reusable buffers, built once per worker,
    strategy and side by the table row's ``state``.
    """
    return _pool_strategy(strategy).count(
        pivot_major, complementary, lo, hi, reference, state
    )


def count_butterflies_parallel(
    graph: BipartiteGraph,
    n_workers: int | None = None,
    side: str | Side | None = None,
    executor: str = "shared",
    invariant: int | Invariant | None = None,
    strategy: str = "scratch",
) -> int:
    """Count butterflies in parallel over pivot ranges.

    Parameters
    ----------
    graph:
        The bipartite graph.
    n_workers:
        Pool size; defaults to ``os.cpu_count()`` capped at
        :data:`~repro.engine.DEFAULT_MAX_WORKERS` (6, the paper's thread
        count).
    side:
        ``"columns"``/``"rows"`` (or a :class:`Side`); defaults to the
        smaller vertex set, per the paper's Section V selection rule.
        Ignored when ``invariant`` is given.
    executor:
        ``"shared"`` (default — zero-copy shared-memory buffers on a
        process-wide warm pool, see
        :class:`repro.parallel.ButterflyExecutor`; falls back to
        ``"serial"`` where POSIX shared memory is unavailable) or
        ``"serial"`` (same decomposition, in-process — used by tests).
    invariant:
        Optional family member (1–8 or :class:`Invariant`): fixes the side
        *and* the reference partition, making each cell of the paper's
        Fig. 11 grid reproducible.  The traversal direction is immaterial
        to the total (pivot contributions are order-independent), which is
        precisely why the family parallelises.
    strategy:
        ``"scratch"`` (default) or ``"spmv"`` — same
        meanings as the sequential entry points, so speedups are
        apples-to-apples — or ``"wedge"``: shards of equal *wedge* work
        (capped at :data:`~repro.core.blocked.DEFAULT_PLAN_BLOCK_BUDGET`
        wedges each) reduced
        with the fused sort-free panel kernel instead of a per-pivot
        Python loop.

    Returns
    -------
    int
        Ξ_G, identical to every sequential member of the family.
    """
    from repro.parallel import ButterflyExecutor, get_default_executor
    from repro.parallel.executor import CHUNKS_PER_WORKER

    # same vocabulary as repro.engine.plan.EXECUTORS
    if executor not in ("shared", "serial"):
        raise ValueError(
            f"unknown executor {executor!r}; expected 'shared' or 'serial'"
        )
    n_workers = pool_width(n_workers)
    if obs._enabled:
        obs.inc(f"parallel.executor.{executor}")
    # the span is the ancestor every ``executor.map`` dispatch span
    # nests under
    with obs.span(
        "parallel.count",
        executor=executor,
        workers=n_workers,
        strategy=strategy,
    ):
        if executor == "shared" and n_workers > 1:
            try:
                return get_default_executor(n_workers).count(
                    graph, invariant=invariant, side=side, strategy=strategy
                )
            except OSError:
                # documented heal path: no usable shared memory (or a
                # publish/attach failure) reruns the call in-process
                obs.inc("parallel.shared_fallback")
        # "serial", n_workers == 1 and the fallback: a one-worker
        # executor's in-process branch over the ranges an
        # n_workers-wide pool gets
        return ButterflyExecutor(n_workers=1)._count(
            graph, invariant, side, strategy, n_workers * CHUNKS_PER_WORKER
        )
