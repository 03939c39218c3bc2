"""Persistent warm-pool butterfly executor over shared-memory graphs.

:class:`ButterflyExecutor` is the counting pool behind Fig. 11's
parallel sweep.  It owns two long-lived resources and amortises both
across calls:

1. **A warm process pool.**  The pool is created once, lazily, and
   reused until :meth:`close`, so a sweep of counts (the eight-invariant
   grid) pays pool startup once, not per call.
2. **Published graphs.**  Graph buffers travel to workers through
   :class:`~repro.parallel.shm.SharedGraphBuffers` (one ``O(nnz)`` memcpy
   into ``/dev/shm``, zero copies per worker).  Publications are cached
   per matrix object (weakly — a segment is unlinked the moment its
   matrix is garbage collected) so repeated sweeps over the same graph
   publish once.

A one-worker executor runs every call in-process over the same ranges
(no pool, no segments); the ``"serial"`` executor of
:func:`repro.core.parallel.count_butterflies_parallel` is exactly that.

Task messages are tiny: ``(meta, side, reference, strategy, lo, hi,
collect)`` tuples, one pool task for every strategy.  Workers attach each
named segment once, cache the attachment and the per-strategy buffers
(the ``state`` of :mod:`repro.core.parallel`'s strategy table), and evict
least-recently-used segments beyond a small cap, so a long-lived pool
counting many graphs does not accumulate mappings.

Failure containment: a broken pool (worker killed, fork failure) is
rebuilt once per dispatch — each heal bumps the ``executor.pool_healed``
counter; if shared memory itself is unavailable the caller
(:func:`repro.core.parallel.count_butterflies_parallel`) reruns the call
in-process (``parallel.shared_fallback``).

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
import weakref
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool

from repro import obs
from repro.obs import profile as obs_profile
from repro._types import pool_width
from repro.core.family import (
    Invariant,
    Reference,
    Side,
    matrices_for_side,
    resolve_invariant,
)
from repro.graphs.bipartite import BipartiteGraph
from repro.parallel.shm import SharedGraphBuffers, attach_graph

__all__ = ["ButterflyExecutor", "get_default_executor", "shutdown_default_executors"]


# ----------------------------------------------------------------------
# worker side: per-process segment + scratch caches
# ----------------------------------------------------------------------

#: segment name -> (shm handle, PatternCSR, PatternCSC,
#: {(state factory, side): worker buffers})
_ATTACHED: "OrderedDict[str, tuple]" = OrderedDict()

#: Max distinct segments a worker keeps mapped (LRU beyond this).
_ATTACH_CACHE_SIZE = 8

#: Max distinct graphs an executor keeps published (LRU beyond this).
_PUBLISH_CACHE_SIZE = 4


def _attached(meta):
    name = meta[0]
    entry = _ATTACHED.get(name)
    if entry is None:
        shm, csr, csc = attach_graph(meta)
        entry = (shm, csr, csc, {})
        _ATTACHED[name] = entry  # worker-local attach LRU: each pooled process owns its private segment cache by design
        while len(_ATTACHED) > _ATTACH_CACHE_SIZE:
            _, (old_shm, *_rest) = _ATTACHED.popitem(last=False)
            try:
                old_shm.close()
            except OSError:  # pragma: no cover - defensive; repro: noqa[RPR006] evicted segment already unmapped by the OS
                pass
    else:
        _ATTACHED.move_to_end(name)
    return entry


def _shm_count_range(args) -> tuple:
    """Pool task: butterfly contribution of pivots ``[lo, hi)``.

    Returns ``(count, metric_delta_or_None)``.  With ``collect`` set (the
    owner dispatched with observability on) the task resets the worker's
    registry first, so the :func:`repro.obs.worker_delta` it returns (metric
    snapshot plus drained span records) is this task's alone; tasks in one
    worker run sequentially.  It also restarts the worker's sampler if the
    owner was profiling when the pool forked (fork copies the profiler
    handle but not its thread).  The strategy's buffers are built on the
    first task per (segment, state factory, side) and reused after, so
    strategies whose table rows share a factory share the buffers.
    """
    from repro.core import parallel

    meta, side_value, reference_value, strategy, lo, hi, collect = args
    if collect:
        obs.reset()
        obs.enable()
        obs_profile.maybe_resume_worker()
    with obs.span("worker.count_range", lo=lo, hi=hi, strategy=strategy):
        _, csr, csc, states = _attached(meta)
        if side_value == Side.COLUMNS.value:
            pivot_major, complementary = csc, csr
        else:
            pivot_major, complementary = csr, csc
        # keyed by the row's factory: strategies that share one (scratch
        # and wedge) share its zeroed accumulator too
        make_state = parallel._pool_strategy(strategy).state
        state = states.get((make_state, side_value))
        if state is None:
            state = states[(make_state, side_value)] = make_state(pivot_major)
        value = parallel.count_range(
            pivot_major, complementary, lo, hi,
            Reference(reference_value), strategy, state,
        )
    return value, obs.worker_delta() if collect else None


# ----------------------------------------------------------------------
# owner side
# ----------------------------------------------------------------------


#: Ranges per worker in one count: the over-decomposition that balances
#: skewed graphs.
CHUNKS_PER_WORKER = 4


class ButterflyExecutor:
    """Reusable parallel execution context for the whole counting family.

    Parameters
    ----------
    n_workers:
        Pool width; defaults to ``os.cpu_count()`` capped at
        :data:`~repro.engine.DEFAULT_MAX_WORKERS` (6, the paper's thread
        count).  ``1`` short-circuits every dispatch to an
        in-process serial run (no pool, no segments).

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

    def __init__(self, n_workers: int | None = None) -> None:
        self.n_workers = pool_width(n_workers)
        self._pool: cf.ProcessPoolExecutor | None = None
        self._closed = False
        #: id(csr matrix) -> (SharedGraphBuffers, weakref to the matrix)
        self._published: "OrderedDict[int, tuple]" = OrderedDict()
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
        while len(self._published) > _PUBLISH_CACHE_SIZE:
            _, (old, _old_ref) = self._published.popitem(last=False)
            old.unlink()
        return buffers

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
        for healed in (False, True):
            if healed:
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
                **({"healed": True} if healed else {}),
            ) as sp:
                try:
                    results = list(pool.map(fn, tasks))
                except BrokenProcessPool:
                    if healed:
                        raise
                    sp.abort()
                    continue
                if sp.span_id is not None:
                    self._last_dispatch = (sp.trace_id, sp.span_id)
                return results

    def count(
        self,
        graph: BipartiteGraph,
        invariant: int | Invariant | None = None,
        side: str | Side | None = None,
        strategy: str = "scratch",
    ) -> int:
        """Ξ_G over the warm pool; same contract as
        :func:`~repro.core.parallel.count_butterflies_parallel`."""
        return self._count(
            graph, invariant, side, strategy,
            self.n_workers * CHUNKS_PER_WORKER,
        )

    def _count(self, graph, invariant, side, strategy, n_chunks: int) -> int:
        """:meth:`count` over ``n_chunks`` ranges (the in-process tiling of
        ``executor="serial"`` passes a wider pool's range count)."""
        from repro.core import parallel

        row = parallel._pool_strategy(strategy)
        reference = Reference.SUFFIX
        if invariant is not None:
            inv = resolve_invariant(invariant)
            side_e, reference = inv.side, inv.reference
        elif side is None:
            from repro.engine import select_count_invariant

            side_e = resolve_invariant(select_count_invariant(graph)).side
        else:
            side_e = Side(side)
        pivot_major, complementary = matrices_for_side(graph, side_e)
        work = row.work(pivot_major, complementary, reference)
        ranges = row.tiling(work, n_chunks)
        if not ranges:
            return 0
        if self.n_workers == 1:
            state = row.state(pivot_major)
            return sum(
                parallel.count_range(
                    pivot_major, complementary, lo, hi, reference, strategy, state
                )
                for lo, hi in ranges
            )
        meta = self._publish(graph).meta
        collect = obs.is_enabled()
        tasks = [
            (meta, side_e.value, reference.value, strategy, lo, hi, collect)
            for lo, hi in ranges
        ]
        total = 0
        for value, delta in self._map(_shm_count_range, tasks):
            total += value
            if delta:
                obs.merge_snapshot(delta, parent=self._last_dispatch)
        return total


# ----------------------------------------------------------------------
# module-level default executors (what executor="shared" dispatches to)
# ----------------------------------------------------------------------

_EXECUTORS: "weakref.WeakSet[ButterflyExecutor]" = weakref.WeakSet()
_DEFAULTS: dict[int, ButterflyExecutor] = {}


def get_default_executor(n_workers: int | None = None) -> ButterflyExecutor:
    """The process-wide warm executor for a given pool width.

    ``count_butterflies_parallel(executor="shared")`` funnels through
    here, so back-to-back calls share one warm pool per distinct
    ``n_workers``.  All default executors are torn down at interpreter
    exit (or explicitly via :func:`shutdown_default_executors`).
    """
    n_workers = pool_width(n_workers)
    ex = _DEFAULTS.get(n_workers)
    if ex is None or ex.closed:
        ex = ButterflyExecutor(n_workers=n_workers)
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
