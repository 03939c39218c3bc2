"""Plan dispatch: one front door onto every counting/peeling code path.

:func:`execute` takes a :class:`~repro.engine.plan.Plan` and a graph and
routes to the family sweep, the blocked panel kernel, the parallel
count sweep, or the peeling fixpoints — the single place in the repo that
knows how to turn a planner decision into a kernel invocation.  Every
execution runs under an ``engine.execute`` span whose attributes record
both the decision (invariant / strategy / executor / workers) and the
**predicted vs actual** cost, so a Perfetto trace or ``stats`` table
shows *why* a run was shaped the way it was and how good the model's
guess turned out to be.  The same comparison is appended to the
persistent plan-drift ledger (:mod:`repro.engine.drift`) so
``explain --drift`` / ``calibrate --if-drifted`` can act on it across
runs.
"""

from __future__ import annotations

import time

from repro import obs
from repro.engine.plan import Plan
from repro.engine.planner import _check_tip_graph, select_count_invariant
from repro.graphs.bipartite import BipartiteGraph

__all__ = ["execute"]


def execute(
    the_plan: Plan,
    graph: BipartiteGraph,
    *,
    k: int | None = None,
    counter=None,
    insert=(),
    delete=(),
):
    """Run ``the_plan`` on ``graph``; returns the workload's natural result.

    - ``"count"`` → int (Ξ_G)
    - ``"vertex-counts"`` → int64 array over ``plan.side``
    - ``"tip"`` → :class:`~repro.core.peeling.tip.TipResult`
    - ``"wing"`` → :class:`~repro.core.peeling.wing.WingResult`
    - ``"stream_apply"`` → the apply stats dict (the mutated counter is
      the ``counter`` argument, or a fresh one over ``graph`` returned
      under the stats key ``"counter"``)

    ``k`` overrides the plan's peeling threshold for tip/wing workloads;
    ``counter`` / ``insert`` / ``delete`` feed the ``stream_apply``
    workload (``counter=None`` builds one from ``graph``).
    """
    if not isinstance(the_plan, Plan):
        raise TypeError(f"expected a Plan, got {the_plan!r}")
    with obs.span(
        "engine.execute",
        workload=the_plan.workload,
        chosen=the_plan.label,
        invariant=the_plan.invariant,
        strategy=the_plan.strategy,
        executor=the_plan.executor,
        workers=the_plan.workers,
        modeled_ops=the_plan.modeled_ops,
        predicted_ms=(
            None if the_plan.est_ms is None else round(the_plan.est_ms, 4)
        ),
    ) as sp:
        if obs._enabled:
            # (the span itself records engine.execute.calls/.seconds)
            obs.inc(f"engine.execute.workload.{the_plan.workload}")
        t0 = time.perf_counter()
        if the_plan.workload == "stream_apply":
            result = _dispatch_stream(the_plan, graph, counter, insert, delete)
        else:
            result = _dispatch(the_plan, graph, k)
        actual = time.perf_counter() - t0
        if obs._enabled:
            sp.set_attributes(actual_ms=round(actual * 1e3, 4))
            obs.observe("engine.actual_ms", actual * 1e3)
            if the_plan.est_seconds is not None:
                obs.observe("engine.predicted_ms", the_plan.est_ms)
            # persist predicted-vs-actual to the plan-drift ledger (a
            # no-op when the ledger is disabled or the plan unmodeled;
            # see engine/drift.py); imported here so a run with obs off
            # never loads the ledger's statistics/hashlib stack
            from repro.engine.drift import record_drift

            record_drift(the_plan, actual)
    return result


def _dispatch(the_plan: Plan, graph: BipartiteGraph, k: int | None):
    workload = the_plan.workload
    if workload == "count":
        return _dispatch_count(the_plan, graph)
    if workload == "vertex-counts":
        return _dispatch_vertex_counts(the_plan, graph)
    k = k if k is not None else the_plan.k
    if k is None:
        raise ValueError(f"workload {workload!r} requires a peeling threshold k")
    if workload == "tip":
        from repro.core.peeling.tip import k_tip

        _check_tip_graph(graph)
        return k_tip(graph, k, side=the_plan.side)
    # wing
    from repro.core.peeling.wing import k_wing

    return k_wing(graph, k)


def _dispatch_stream(
    the_plan: Plan, graph: BipartiteGraph, counter, insert, delete
) -> dict:
    from repro.core.stream import StreamingButterflyCounter

    if counter is None:
        counter = StreamingButterflyCounter(graph)
    stats = counter.apply(
        insert=insert, delete=delete, strategy=the_plan.strategy
    )
    stats = dict(stats)
    stats["counter"] = counter
    return stats


def _storage_view(the_plan: Plan, graph):
    """The graph as the plan's layout reads it: an ``mmap`` plan spills
    it here, inside the timed execution, unless the caller already hands
    in an :class:`~repro.storage.MmapCSR`; a ``raw`` plan reads the
    graph (or the caller's storage) as given."""
    if the_plan.layout == "raw":
        return graph
    from repro.storage import make_storage

    return make_storage(graph, the_plan.layout)


def _dispatch_count(the_plan: Plan, graph: BipartiteGraph) -> int:
    graph = _storage_view(the_plan, graph)
    if the_plan.strategy == "priority":
        from repro.core.priority import count_butterflies_priority

        return count_butterflies_priority(graph)
    if the_plan.strategy == "blocked":
        from repro.core.blocked import count_butterflies_blocked

        return count_butterflies_blocked(
            graph, _member(the_plan, graph),
            block_size=the_plan.block_size or 64,
        )
    if (
        the_plan.strategy == "wedge"
        or the_plan.workers > 1
        or the_plan.executor != "serial"
    ):
        # the wedge shard walk lives behind the parallel entry point even
        # at workers=1 (the unblocked loop has no such strategy)
        from repro.core.parallel import count_butterflies_parallel

        return count_butterflies_parallel(
            graph,
            n_workers=the_plan.workers,
            executor=the_plan.executor,
            invariant=the_plan.invariant,
            strategy=the_plan.strategy,
        )
    from repro.core.family import count_butterflies_unblocked

    return count_butterflies_unblocked(
        graph, _member(the_plan, graph), strategy=the_plan.strategy
    )


def _member(the_plan: Plan, graph) -> int:
    """The plan's invariant; a hand-built plan without one gets the
    smaller-side rule."""
    if the_plan.invariant is not None:
        return the_plan.invariant
    return select_count_invariant(graph)


def _dispatch_vertex_counts(the_plan: Plan, graph: BipartiteGraph):
    from repro.core.priority import vertex_butterfly_counts_priority

    left, right = vertex_butterfly_counts_priority(graph)
    return left if the_plan.side == "left" else right
