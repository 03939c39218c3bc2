"""Persistent warm-pool butterfly executor over shared-memory graphs.

:class:`ButterflyExecutor` owns two long-lived resources and amortises
both across *every* parallel entry point in the package:

1. **A warm process pool.**  The pool is created once, lazily, and
   reused until :meth:`close`, so multi-round workloads — the peeling
   fixpoints foremost — pay pool startup once, not per round.
2. **Published graphs.**  Graph buffers travel to workers through
   :class:`~repro.parallel.shm.SharedGraphBuffers` (one ``O(nnz)`` memcpy
   into ``/dev/shm``, zero copies per worker).  Publications are cached
   per matrix object (weakly — a segment is unlinked the moment its
   matrix is garbage collected) so repeated sweeps over the same graph,
   e.g. the eight-invariant benchmark grid, publish once.

A one-worker executor runs every call in-process over the same ranges
(no pool, no segments); the ``"serial"`` executor of
:func:`repro.core.parallel.count_butterflies_parallel` is exactly that.

Task messages are tiny: ``(meta, side, reference, strategy, lo, hi,
collect)`` tuples.  Workers attach each named segment once, cache the
attachment and
the per-strategy scratch buffers, and evict least-recently-used segments
beyond a small cap, so a long-lived pool serving a peeling fixpoint (one
fresh subgraph per round) does not accumulate mappings.

Failure containment: a broken pool (worker killed, fork failure) is
rebuilt once per dispatch — each heal bumps the ``executor.pool_healed``
counter; if shared memory itself is unavailable the caller
(:func:`repro.core.parallel.count_butterflies_parallel`, the peeling
loops) reruns the call in-process (``parallel.shared_fallback``).

Observability: every pool start / publish / dispatch / heal is recorded
on the :mod:`repro.obs` registry, and when observability is enabled at
dispatch time each task carries a ``collect`` flag — the worker resets
its own registry, runs, and returns its metric snapshot alongside the
result, which the owner folds back in (the "merge deltas through the
result path" discipline; process-safe because nothing is shared).
"""

from __future__ import annotations

import atexit
import concurrent.futures as cf
import os
import weakref
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro import obs
from repro.obs import profile as obs_profile
from repro._types import COUNT_DTYPE
from repro.core.family import Invariant, Reference, Side
from repro.core.workinfo import matrices_for_side, resolve_invariant
from repro.graphs.bipartite import BipartiteGraph
from repro.parallel.shm import SharedGraphBuffers, attach_graph

__all__ = ["ButterflyExecutor", "get_default_executor", "shutdown_default_executors"]


# ----------------------------------------------------------------------
# worker side: per-process segment + scratch caches
# ----------------------------------------------------------------------

#: segment name -> (shm handle, PatternCSR, PatternCSC, scratch dict)
_ATTACHED: "OrderedDict[str, tuple]" = OrderedDict()

#: Max distinct segments a worker keeps mapped (LRU beyond this).
_ATTACH_CACHE_SIZE = 8


def _attached(meta):
    name = meta[0]
    entry = _ATTACHED.get(name)
    if entry is None:
        shm, csr, csc = attach_graph(meta)
        entry = (shm, csr, csc, {})
        _ATTACHED[name] = entry  # repro: noqa[RPR010] worker-local attach LRU: each pooled process owns its private segment cache by design
        while len(_ATTACHED) > _ATTACH_CACHE_SIZE:
            _, (old_shm, *_rest) = _ATTACHED.popitem(last=False)
            try:
                old_shm.close()
            except OSError:  # pragma: no cover - defensive; repro: noqa[RPR006] evicted segment already unmapped by the OS
                pass
    else:
        _ATTACHED.move_to_end(name)
    return entry


def _strategy_state(entry, pivot_major, strategy: str, side_value):
    """Reusable per-(segment, strategy, side) scratch buffers.

    The buffer dims depend on which matrix is pivot-major (``scratch``
    needs ``major_dim`` counters, ``spmv`` needs a ``minor_dim`` marker
    plus the expanded row ids), so the cache key must include the side.
    """
    _, _, _, cache = entry
    key = (strategy, side_value)
    state = cache.get(key)
    if state is None:
        if strategy == "scratch":
            state = (np.zeros(pivot_major.major_dim, dtype=COUNT_DTYPE), None)
        elif strategy == "spmv":
            state = (
                pivot_major.expand_major(),
                np.zeros(pivot_major.minor_dim, dtype=bool),
            )
        elif strategy == "wedge":
            # endpoint-space accumulator for the fused panel reduction
            state = (np.zeros(pivot_major.major_dim, dtype=np.int64), None)
        else:
            state = (None, None)
        cache[key] = state
    return state


def _collect_begin(collect: bool) -> None:
    """Start a fresh metric-delta window in a pool worker.

    Tasks within one worker run sequentially, so resetting the worker's
    registry at task start makes the end-of-task snapshot exactly this
    task's delta — the owner merges it through the result path.  If the
    owner was running the sampling profiler when the pool forked, the
    worker restarts its own sampler here (fork copies the profiler
    handle but not its thread); the samples ride the same delta under
    :data:`repro.obs.PROFILE_DELTA_KEY`.
    """
    if collect:
        obs.reset()
        obs.enable()
        obs_profile.maybe_resume_worker()


def _collect_end(collect: bool):
    """End the window: the task's metric snapshot *plus* its drained span
    records (under :data:`repro.obs.TRACE_DELTA_KEY`) — see
    :func:`repro.obs.worker_delta`.  The owner re-parents the spans under
    the dispatching ``executor.map`` span when folding the delta back."""
    return obs.worker_delta() if collect else None


def _shm_count_range(args) -> tuple:
    """Pool task: butterfly contribution of pivots ``[lo, hi)``.

    Returns ``(count, metric_delta_or_None)``; the delta is the worker's
    :func:`repro.obs.snapshot` for this task when the owner dispatched
    with observability on.
    """
    from repro.core.parallel import count_range

    meta, side_value, reference_value, strategy, lo, hi, collect = args
    _collect_begin(collect)
    with obs.span("worker.count_range", lo=lo, hi=hi, strategy=strategy):
        entry = _attached(meta)
        _, csr, csc, _ = entry
        if side_value == Side.COLUMNS.value:
            pivot_major, complementary = csc, csr
        else:
            pivot_major, complementary = csr, csc
        extra0, extra1 = _strategy_state(entry, pivot_major, strategy, side_value)
        if strategy == "scratch":
            value = count_range(
                pivot_major, complementary, lo, hi,
                Reference(reference_value), strategy, scratch=extra0,
            )
        else:
            value = count_range(
                pivot_major, complementary, lo, hi,
                Reference(reference_value), strategy, extra0, extra1,
            )
    return value, _collect_end(collect)


def _shm_wedge_shard(args) -> tuple:
    """Pool task: fused panel reduction over the wedge shard ``[lo, hi)``.

    The whole shard's wedge set is expanded and reduced with the sort-free
    ``panel_choose2_sum`` kernel — no per-pivot Python loop.  Shards are
    cut by :func:`repro.core.parallel.wedge_shards` so the expansion stays
    under the cache-resident wedge budget.
    """
    from repro.core.blocked import panel_butterflies

    meta, side_value, reference_value, lo, hi, collect = args
    _collect_begin(collect)
    with obs.span("worker.wedge_shard", lo=lo, hi=hi):
        entry = _attached(meta)
        _, csr, csc, _ = entry
        if side_value == Side.COLUMNS.value:
            pivot_major, complementary = csc, csr
        else:
            pivot_major, complementary = csr, csc
        scratch, _ = _strategy_state(entry, pivot_major, "wedge", side_value)
        value = int(
            panel_butterflies(
                pivot_major, complementary, lo, hi,
                Reference(reference_value), scratch=scratch,
            )
        )
    return value, _collect_end(collect)


def _shm_tip_decrements(args) -> tuple:
    """Pool task: batched butterfly-support decrements for removing the
    tip-bucket vertices ``ids`` (static original-graph multiplicities).

    Returns ``(affected_vertices, lost_counts, delta)`` compressed to the
    nonzero rows — the owner scatters the partials into its dense counts.
    """
    from repro.core.peeling.buckets import tip_decrement_batch

    meta, side_value, ids, collect = args
    _collect_begin(collect)
    with obs.span("worker.tip_decrements", batch=len(ids)):
        _, csr, csc, _ = _attached(meta)
        if side_value == Side.COLUMNS.value:
            pivot_major, complementary = csc, csr
        else:
            pivot_major, complementary = csr, csc
        affected, lost = tip_decrement_batch(pivot_major, complementary, ids)
    return affected, lost, _collect_end(collect)


def _shm_edge_support_range(args) -> tuple:
    """Pool task: per-edge butterfly support of the CSR rows ``[lo, hi)``
    (entry order), for the parallel wing-peeling recount rounds."""
    from repro.core.local_counts import edge_support_panel

    meta, lo, hi, collect = args
    _collect_begin(collect)
    with obs.span("worker.edge_support_range", lo=lo, hi=hi):
        _, csr, csc, _ = _attached(meta)
        vals = edge_support_panel(csr, csc, lo, hi)
    return lo, vals, _collect_end(collect)


def _shm_vertex_range(args) -> tuple:
    """Pool task: per-vertex butterfly counts of pivots ``[lo, hi)``."""
    from repro.core.local_counts import vertex_counts_panel

    meta, side_value, lo, hi, collect = args
    _collect_begin(collect)
    with obs.span("worker.vertex_range", lo=lo, hi=hi):
        _, csr, csc, _ = _attached(meta)
        if side_value == Side.COLUMNS.value:
            pivot_major, complementary = csc, csr
        else:
            pivot_major, complementary = csr, csc
        counts = vertex_counts_panel(pivot_major, complementary, lo, hi)
    return lo, counts, _collect_end(collect)


# ----------------------------------------------------------------------
# owner side
# ----------------------------------------------------------------------


def _check_chunks(chunks_per_worker: int) -> int:
    if chunks_per_worker < 1:
        raise ValueError(
            f"chunks_per_worker must be >= 1, got {chunks_per_worker}"
        )
    return int(chunks_per_worker)


class ButterflyExecutor:
    """Reusable parallel execution context for the whole counting family.

    Parameters
    ----------
    n_workers:
        Pool width; defaults to ``os.cpu_count()`` capped at 6 (the
        paper's thread count).  ``1`` short-circuits every dispatch to an
        in-process serial run (no pool, no segments).
    chunks_per_worker:
        Default over-decomposition factor for load balancing.

    Use as a context manager, or call :meth:`close` — both shut the pool
    down and unlink every published segment.  An ``atexit`` hook covers
    executors that are simply dropped.

    Examples
    --------
    >>> from repro.parallel import ButterflyExecutor
    >>> from repro.graphs import power_law_bipartite
    >>> g = power_law_bipartite(300, 400, 2000, seed=7)
    >>> with ButterflyExecutor(n_workers=2) as ex:
    ...     total = ex.count(g)            # publishes g, warms the pool
    ...     again = ex.count(g, invariant=5)   # zero-copy reuse, warm pool
    >>> total == again
    True
    """

    def __init__(
        self, n_workers: int | None = None, chunks_per_worker: int = 4
    ) -> None:
        if n_workers is None:
            n_workers = min(os.cpu_count() or 1, 6)
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self.chunks_per_worker = _check_chunks(chunks_per_worker)
        self._pool: cf.ProcessPoolExecutor | None = None
        self._closed = False
        #: id(csr matrix) -> (SharedGraphBuffers, weakref to the matrix)
        self._published: "OrderedDict[int, tuple]" = OrderedDict()
        self._publish_cache_size = 4
        # per-instance telemetry (kept for benchmarks / tests); every
        # increment is mirrored onto the repro.obs registry under the
        # ``executor.*`` names when observability is enabled
        self.pool_starts = 0
        self.publish_count = 0
        self.dispatch_count = 0
        self.pool_healed = 0
        #: (trace_id, span_id) of the most recent successful dispatch
        #: span — the adoption parent for worker span records.
        self._last_dispatch: tuple[str, str] | None = None
        _EXECUTORS.add(self)

    # ------------------------------------------------------------------
    # resources
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> cf.ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("ButterflyExecutor is closed")
        if self._pool is None:
            self._pool = cf.ProcessPoolExecutor(max_workers=self.n_workers)
            self.pool_starts += 1
            obs.inc("executor.pool_starts")
        return self._pool

    def _publish(self, graph: BipartiteGraph) -> SharedGraphBuffers:
        """Publish (or reuse) the segment holding ``graph``'s buffers.

        Keyed weakly by the CSR matrix object: identity reuse after a GC
        cannot alias because a dead key is verified against its weakref
        before reuse, and the finalizer unlinks the segment as soon as
        the matrix is collected.
        """
        if self._closed:
            raise RuntimeError("ButterflyExecutor is closed")
        csr = graph.csr
        key = id(csr)
        entry = self._published.get(key)
        if entry is not None:
            buffers, ref = entry
            if ref() is csr and buffers._shm is not None:
                self._published.move_to_end(key)
                return buffers
            # stale (matrix died and id was reused, or segment torn down)
            self._published.pop(key, None)
            buffers.unlink()
        buffers = SharedGraphBuffers.publish(graph)
        self.publish_count += 1
        obs.inc("executor.publish")
        obs.inc("executor.publish_bytes", buffers.nbytes)

        def _finalize(buffers=buffers, key=key, pub=weakref.ref(self)):
            ex = pub()
            if ex is not None:
                ex._published.pop(key, None)
            buffers.unlink()

        ref = weakref.ref(csr, lambda _ref: _finalize())
        self._published[key] = (buffers, ref)
        while len(self._published) > self._publish_cache_size:
            _, (old, _old_ref) = self._published.popitem(last=False)
            old.unlink()
        return buffers

    def release(self, graph: BipartiteGraph) -> None:
        """Drop ``graph``'s cached publication (unlinks its segment)."""
        entry = self._published.pop(id(graph.csr), None)
        if entry is not None:
            entry[0].unlink()

    def close(self) -> None:
        """Shut the pool down and unlink every published segment."""
        if self._closed:
            return
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        published, self._published = self._published, OrderedDict()
        for buffers, _ref in published.values():
            buffers.unlink()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ButterflyExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _n_chunks(self, chunks_per_worker: int | None) -> int:
        """Range count for one call: ``n_workers`` × the per-call (or
        default) over-decomposition factor."""
        if chunks_per_worker is None:
            chunks_per_worker = self.chunks_per_worker
        return self.n_workers * _check_chunks(chunks_per_worker)

    def _map(self, fn, tasks):
        """Run ``fn`` over ``tasks`` on the warm pool, healing it once.

        Each attempt runs under an ``executor.map`` span; a dispatch
        killed by a broken pool marks its span ``aborted`` (recorded, not
        dangling) before the heal-and-retry opens a fresh one.  The
        ``(trace_id, span_id)`` of the *successful* attempt is stashed on
        ``self._last_dispatch`` so the caller can re-parent the worker
        span records shipped inside the metric deltas under it.
        """
        self.dispatch_count += 1
        if obs._enabled:
            obs.inc("executor.dispatch")
            obs.inc("executor.tasks", len(tasks))
        pool = self._ensure_pool()
        self._last_dispatch = None
        try:
            with obs.span(
                "executor.map", tasks=len(tasks), workers=self.n_workers
            ) as sp:
                try:
                    results = list(pool.map(fn, tasks))
                except BrokenProcessPool:
                    sp.abort()
                    raise
                if sp.span_id is not None:
                    self._last_dispatch = (sp.trace_id, sp.span_id)
                return results
        except BrokenProcessPool:
            # heal: rebuild the pool once, re-dispatch (tasks are pure)
            self.pool_healed += 1
            obs.inc("executor.pool_healed")
            self._pool = None
            pool.shutdown(wait=False)
            pool = self._ensure_pool()
            with obs.span(
                "executor.map",
                tasks=len(tasks),
                workers=self.n_workers,
                healed=True,
            ) as sp:
                results = list(pool.map(fn, tasks))
                if sp.span_id is not None:
                    self._last_dispatch = (sp.trace_id, sp.span_id)
                return results

    def count(
        self,
        graph: BipartiteGraph,
        invariant: int | Invariant | None = None,
        side: str | Side | None = None,
        strategy: str = "adjacency",
        chunks_per_worker: int | None = None,
    ) -> int:
        """Ξ_G over the warm pool; same contract as
        :func:`~repro.core.parallel.count_butterflies_parallel`."""
        from repro.core.parallel import (
            balanced_ranges,
            count_range,
            parallel_work_model,
            wedge_shards,
        )

        if strategy not in ("adjacency", "scratch", "spmv", "wedge"):
            raise ValueError(
                f"unknown strategy {strategy!r}; expected 'adjacency', "
                "'scratch', 'spmv' or 'wedge'"
            )
        n_chunks = self._n_chunks(chunks_per_worker)
        reference = Reference.SUFFIX
        if invariant is not None:
            inv = resolve_invariant(invariant)
            side_e, reference = inv.side, inv.reference
        elif side is None:
            from repro.engine import select_count_invariant

            side_e = resolve_invariant(select_count_invariant(graph)).side
        elif isinstance(side, Side):
            side_e = side
        else:
            side_e = Side(side)
        pivot_major, complementary = matrices_for_side(graph, side_e)
        work = parallel_work_model(pivot_major, complementary, strategy, reference)
        if strategy == "wedge":
            ranges = wedge_shards(work, n_chunks)
        else:
            ranges = balanced_ranges(work, n_chunks)
        if not ranges:
            return 0
        if self.n_workers == 1:
            return sum(
                count_range(pivot_major, complementary, lo, hi, reference, strategy)
                for lo, hi in ranges
            )
        meta = self._publish(graph).meta
        collect = obs.is_enabled()
        if strategy == "wedge":
            fn = _shm_wedge_shard
            tasks = [
                (meta, side_e.value, reference.value, lo, hi, collect)
                for lo, hi in ranges
            ]
        else:
            fn = _shm_count_range
            tasks = [
                (meta, side_e.value, reference.value, strategy, lo, hi, collect)
                for lo, hi in ranges
            ]
        total = 0
        for value, delta in self._map(fn, tasks):
            total += value
            if delta:
                obs.merge_snapshot(delta, parent=self._last_dispatch)
        return total

    def vertex_counts(
        self,
        graph: BipartiteGraph,
        side: str = "left",
        chunks_per_worker: int | None = None,
    ) -> np.ndarray:
        """Per-vertex butterfly counts over the warm pool; same contract as
        :func:`~repro.core.local_counts.vertex_butterfly_counts`."""
        from repro.core.local_counts import vertex_counts_panel
        from repro.core.parallel import balanced_ranges, pivot_work_estimate

        if side == "left":
            pivot_major, complementary = graph.csr, graph.csc
            side_value = Side.ROWS.value
        elif side == "right":
            pivot_major, complementary = graph.csc, graph.csr
            side_value = Side.COLUMNS.value
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        out = np.zeros(pivot_major.major_dim, dtype=COUNT_DTYPE)
        work = pivot_work_estimate(pivot_major, complementary)
        ranges = balanced_ranges(work, self._n_chunks(chunks_per_worker))
        if not ranges:
            return out
        if self.n_workers == 1:
            for lo, hi in ranges:
                out[lo:hi] = vertex_counts_panel(pivot_major, complementary, lo, hi)
            return out
        meta = self._publish(graph).meta
        collect = obs.is_enabled()
        tasks = [(meta, side_value, lo, hi, collect) for lo, hi in ranges]
        for lo, counts, delta in self._map(_shm_vertex_range, tasks):
            out[lo : lo + len(counts)] = counts
            if delta:
                obs.merge_snapshot(delta, parent=self._last_dispatch)
        return out

    def tip_decrements(
        self,
        graph: BipartiteGraph,
        ids: np.ndarray,
        side: str = "left",
        work: np.ndarray | None = None,
        chunks_per_worker: int | None = None,
    ) -> np.ndarray:
        """Dense per-vertex butterfly losses from removing the bucket ``ids``.

        The pooled round of the parallel tip decomposition
        (:func:`~repro.core.peeling.tip_numbers_bucket_parallel`), which
        calls it only for rounds of at least
        :data:`~repro.core.parallel.DEFAULT_WEDGE_SHARD_BUDGET` wedges —
        lighter rounds run in-process.  Batches of removed vertices are
        sharded by wedge work and each worker runs
        :func:`~repro.core.peeling.tip_decrement_batch` on its slice of
        the *original* graph (multiplicities are static), the owner sums
        the compressed partials; a batch that yields a single shard runs
        in-process without a dispatch.  ``work`` is the precomputed
        per-pivot wedge work, so the peel loop does not recompute it per
        round.
        """
        from repro.core.parallel import balanced_ranges, pivot_work_estimate
        from repro.core.peeling.buckets import tip_decrement_batch

        if side == "left":
            pivot_major, complementary = graph.csr, graph.csc
            side_value = Side.ROWS.value
        elif side == "right":
            pivot_major, complementary = graph.csc, graph.csr
            side_value = Side.COLUMNS.value
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        n_chunks = self._n_chunks(chunks_per_worker)
        out = np.zeros(pivot_major.major_dim, dtype=COUNT_DTYPE)
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return out
        if work is None:
            work = pivot_work_estimate(pivot_major, complementary)
        ranges = balanced_ranges(work[ids], n_chunks)
        if self.n_workers == 1 or len(ranges) <= 1:
            affected, lost = tip_decrement_batch(pivot_major, complementary, ids)
            out[affected] += lost
            return out
        meta = self._publish(graph).meta
        collect = obs.is_enabled()
        tasks = [(meta, side_value, ids[lo:hi], collect) for lo, hi in ranges]
        for affected, lost, delta in self._map(_shm_tip_decrements, tasks):
            # `affected` is unique within a shard, so fancy += is exact here
            out[affected] += lost
            if delta:
                obs.merge_snapshot(delta, parent=self._last_dispatch)
        return out

    def edge_support(
        self,
        graph: BipartiteGraph,
        chunks_per_worker: int | None = None,
    ) -> np.ndarray:
        """Per-edge butterfly support in CSR entry order, over the warm pool.

        The per-round kernel of the parallel wing decomposition: CSR row
        panels balanced by wedge work, each worker reducing its panel with
        :func:`~repro.core.local_counts.edge_support_panel`; panels map to
        disjoint entry ranges, so the owner writes each result straight
        into its slice.  Matches
        :func:`~repro.core.local_counts.edge_butterfly_support_blocked`
        element-wise.
        """
        from repro.core.local_counts import edge_support_panel
        from repro.core.parallel import balanced_ranges, pivot_work_estimate

        csr, csc = graph.csr, graph.csc
        support = np.zeros(csr.nnz, dtype=COUNT_DTYPE)
        work = pivot_work_estimate(csr, csc)
        ranges = balanced_ranges(work, self._n_chunks(chunks_per_worker))
        if not ranges:
            return support
        if self.n_workers == 1:
            for lo, hi in ranges:
                vals = edge_support_panel(csr, csc, lo, hi)
                e_lo, _ = csr.entry_range(lo, hi)
                support[e_lo : e_lo + len(vals)] = vals
            return support
        meta = self._publish(graph).meta
        collect = obs.is_enabled()
        tasks = [(meta, lo, hi, collect) for lo, hi in ranges]
        for lo, vals, delta in self._map(_shm_edge_support_range, tasks):
            e_lo, _ = csr.entry_range(lo, lo + 1)
            support[e_lo : e_lo + len(vals)] = vals
            if delta:
                obs.merge_snapshot(delta, parent=self._last_dispatch)
        return support

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "warm" if self._pool is not None else "cold"
        )
        return (
            f"ButterflyExecutor(n_workers={self.n_workers}, {state}, "
            f"published={len(self._published)})"
        )


# ----------------------------------------------------------------------
# module-level default executors (what executor="shared" dispatches to)
# ----------------------------------------------------------------------

_EXECUTORS: "weakref.WeakSet[ButterflyExecutor]" = weakref.WeakSet()
_DEFAULTS: dict[int, ButterflyExecutor] = {}


def get_default_executor(
    n_workers: int | None = None, chunks_per_worker: int = 4
) -> ButterflyExecutor:
    """The process-wide warm executor for a given pool width.

    ``count_butterflies_parallel(executor="shared")`` funnels through
    here, so back-to-back calls (and multi-round peeling) share one warm
    pool per distinct ``n_workers``.  All default executors are torn down
    at interpreter exit (or explicitly via
    :func:`shutdown_default_executors`).
    """
    if n_workers is None:
        n_workers = min(os.cpu_count() or 1, 6)
    ex = _DEFAULTS.get(n_workers)
    if ex is None or ex.closed:
        ex = ButterflyExecutor(n_workers=n_workers,
                               chunks_per_worker=chunks_per_worker)
        _DEFAULTS[n_workers] = ex
    return ex


def shutdown_default_executors() -> None:
    """Close every process-wide default executor (idempotent)."""
    while _DEFAULTS:
        _, ex = _DEFAULTS.popitem()
        ex.close()


def _shutdown_all() -> None:  # pragma: no cover - exercised via atexit
    shutdown_default_executors()
    for ex in list(_EXECUTORS):
        ex.close()


atexit.register(_shutdown_all)
