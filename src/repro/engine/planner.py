"""Cost-based planner: graph stats × exact work model × calibration → Plan.

The paper's Section V result is that no single family member wins — which
invariant, storage, and update strategy is fastest depends on the graph's
shape (side ratio, sparsity, degree skew).  The planner makes that choice
mechanical:

1. **Candidate generation** — enumerate the plans worth considering for
   the workload, respecting any caller-pinned fields (a pinned
   ``invariant=3`` restricts candidates to invariant 3; a pinned
   ``executor="serial"`` drops the pool rows; etc.).
2. **Exact work model** — each candidate's element-operation count comes
   from :mod:`repro.core.workinfo` (the same model the parallel range
   balancer and the Fig. 10 analysis use), never from asymptotics.
3. **Calibration** — ops become estimated seconds through the per-machine
   coefficient table (:mod:`repro.engine.calibration`), with shipped
   defaults when the machine is uncalibrated.
4. **Selection** — lowest estimated cost wins; ties break toward the
   earlier candidate in generation order (which lists the paper-preferred
   suffix members first).  Everything is deterministic, so ``explain``
   output and trace attributes agree by construction.

The smaller-side rule the paper states *emerges* from the model rather
than being hard-coded: the side with fewer pivots pays less per-iteration
overhead (unblocked) and a shorter triangular scan (spmv).
"""

from __future__ import annotations

import os

from repro import obs
from repro.core.workinfo import (
    matrices_for_side,
    pivot_work_estimate,
    resolve_invariant,
    spmv_scan_lengths,
)
from repro.engine.calibration import CalibrationTable, load_calibration
from repro.engine.plan import (
    COUNT_STRATEGIES,
    EXECUTORS,
    LAYOUTS,
    STREAM_STRATEGIES,
    WORKLOADS,
    Plan,
)
from repro.graphs.bipartite import BipartiteGraph

__all__ = [
    "plan",
    "candidate_plans",
    "explain",
    "select_count_invariant",
    "DEFAULT_MAX_WORKERS",
    "DEFAULT_PLAN_BLOCK_BUDGET",
]

#: Pool-size cap for auto-chosen parallel plans (the paper's thread count).
DEFAULT_MAX_WORKERS = 6

#: Invariants the planner considers when none is pinned: the forward
#: look-ahead (suffix) member of each side — the group the paper's
#: Section V measures as faster (2/4/6/8 are cost-identical per side,
#: so one representative per side spans the whole decision space).
_AUTO_INVARIANTS = (2, 6)

#: Default wedge-work budget used to SIZE panels (elements).  Smaller
#: than the executor's transient-memory cap
#: (:data:`repro.core.blocked.DEFAULT_PANEL_WORK_BUDGET`) on purpose: the
#: panel kernel's ``np.unique`` sort degrades superlinearly once the
#: expanded wedge set falls out of L2, so the planner targets a
#: cache-resident panel (~256k int64 endpoints ≈ 2 MB) rather than the
#: largest panel that merely *fits in RAM*.  Override with ``budget=``.
DEFAULT_PLAN_BLOCK_BUDGET: int = 1 << 18


# ----------------------------------------------------------------------
# graph features + per-side work cache
# ----------------------------------------------------------------------
class _SideWork:
    """Exact work totals for one traversed side, computed once per plan."""

    def __init__(self, graph: BipartiteGraph, invariant_number: int):
        inv = resolve_invariant(invariant_number)
        pivot_major, complementary = matrices_for_side(graph, inv.side)
        self.invariant = inv
        self.pivots = int(pivot_major.major_dim)
        self.nnz = int(graph.n_edges)
        per_pivot = pivot_work_estimate(pivot_major, complementary)
        self.adjacency_ops = int(per_pivot.sum())
        self.max_pivot_ops = int(per_pivot.max()) if self.pivots else 0
        self.spmv_ops = int(
            spmv_scan_lengths(pivot_major, inv.reference).sum()
        ) + self.nnz
        self.mean_pivot_ops = (
            self.adjacency_ops / self.pivots if self.pivots else 0.0
        )

    def ops(self, strategy: str) -> int:
        return self.spmv_ops if strategy == "spmv" else self.adjacency_ops


def _auto_block_size(side_work: _SideWork, budget: int) -> int:
    """Panel width that keeps a panel's wedge expansion ≈ within budget."""
    if side_work.mean_pivot_ops <= 0:
        return 64
    width = int(budget / max(side_work.mean_pivot_ops, 1.0))
    return max(16, min(width, 4096))


def _cost_unblocked(work: _SideWork, strategy: str, cal: CalibrationTable) -> float:
    return (
        work.ops(strategy) * cal.ns_per_op(strategy)
        + work.pivots * cal.ns_per_pivot(strategy)
    ) * 1e-9


def _cost_blocked(work: _SideWork, block_size: int, cal: CalibrationTable) -> float:
    panels = -(-work.pivots // max(block_size, 1)) if work.pivots else 0
    return (
        work.adjacency_ops * cal.ns_per_op("blocked")
        + panels * cal.ns_per_panel
    ) * 1e-9


def _cost_parallel(serial_cost: float, workers: int, cal: CalibrationTable) -> float:
    return (
        serial_cost / (workers * cal.parallel_efficiency)
        + cal.parallel_dispatch_ns * 1e-9
    )


def _graph_note(graph: BipartiteGraph) -> str:
    ratio = graph.n_left / graph.n_right if graph.n_right else float("inf")
    return (
        f"graph: {graph.n_left}x{graph.n_right}, nnz={graph.n_edges}, "
        f"side_ratio={ratio:.3g}"
    )


# ----------------------------------------------------------------------
# candidate generation
# ----------------------------------------------------------------------
def candidate_plans(
    graph: BipartiteGraph,
    workload: str = "count",
    *,
    budget: int | None = None,
    invariant=None,
    strategy: str | None = None,
    executor: str | None = None,
    workers: int | None = None,
    block_size: int | None = None,
    side: str | None = None,
    k: int | None = None,
    batch: tuple | None = None,
    layout: str | None = None,
    family_only: bool = False,
    calibration: CalibrationTable | None = None,
) -> list[Plan]:
    """The scored candidate table for ``plan`` (chosen = lowest est).

    Any non-None keyword pins the corresponding plan field; the planner
    fills the rest.  ``family_only=True`` restricts counting candidates
    to the sequential unblocked family (the contract of
    :func:`repro.core.count_butterflies`).  The ``stream_apply`` workload
    takes the pending edit batch via ``batch=(insert, delete)`` (edge
    lists / (k, 2) arrays) and scores batched incremental maintenance
    against a from-scratch recount.
    """
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of {WORKLOADS}"
        )
    if executor is not None and executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}"
        )
    if layout is not None and layout not in LAYOUTS:
        raise ValueError(
            f"unknown layout {layout!r}; expected one of {LAYOUTS}"
        )
    if layout not in (None, "raw") and workload not in ("count", "vertex-counts"):
        raise ValueError(
            f"the storage-layout axis applies to 'count'/'vertex-counts' "
            f"plans; workload {workload!r} runs on raw views"
        )
    cal = calibration or load_calibration()
    budget = budget if budget is not None else DEFAULT_PLAN_BLOCK_BUDGET
    if workload == "stream_apply":
        if strategy is not None and strategy not in STREAM_STRATEGIES:
            raise ValueError(
                f"unknown stream strategy {strategy!r}; expected one of "
                f"{STREAM_STRATEGIES}"
            )
        return _stream_candidates(graph, cal, strategy, batch)
    if strategy is not None and strategy not in COUNT_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {COUNT_STRATEGIES}"
        )
    if workload == "count":
        return _count_candidates(
            graph, cal, budget, invariant, strategy, executor, workers,
            block_size, family_only, layout,
        )
    if workload == "vertex-counts":
        return _vertex_candidates(
            graph, cal, budget, executor, workers, block_size,
            side or "left", rounds=1, k=None, layout=layout,
            strategy=strategy,
        )
    if workload == "tip":
        return _vertex_candidates(
            graph, cal, budget, executor, workers, block_size,
            side or "left", rounds=3, k=k, workload="tip", strategy=strategy,
        )
    # wing
    return _wing_candidates(graph, cal, budget, block_size, k)


def _pool_workers(workers: int | None) -> int:
    if workers is not None:
        return workers
    return min(os.cpu_count() or 1, DEFAULT_MAX_WORKERS)


def _layout_rows(
    base: Plan, work: _SideWork, cal: CalibrationTable, layout: str | None
) -> list[Plan]:
    """Expand one raw candidate into its storage-layout variants.

    ``layout=None`` keeps the auto axis: raw competes against reorder
    (one-off relabel cost plus the calibrated per-op locality gain), so
    reordering wins exactly when the modeled kernel time dwarfs the
    ``reorder_ns_per_edge·nnz`` build.  mmap (out-of-core) is pin-only
    and serial-only, since an out-of-core graph has no business being
    copied into a shm segment.
    """
    rows: list[Plan] = []
    build = work.nnz * cal.reorder_ns_per_edge * 1e-9
    if layout in (None, "raw"):
        rows.append(base)
    if layout in (None, "reorder"):
        est = build + base.est_seconds * cal.reorder_gain
        rows.append(base.with_(
            layout="reorder", est_seconds=est,
            reason=f"degree-reordered layout: ~{cal.reorder_gain:.2f}x "
                   f"kernel cost after a {build * 1e3:.2f} ms relabel",
        ))
    if layout == "mmap" and base.executor == "serial":
        rows.append(base.with_(
            layout="mmap",
            reason="mmap-backed column files: out-of-core blocked path, "
                   "page cache does the tiering",
        ))
    return rows


#: A per-vertex pass costs this many passes of its count kernel: the
#: reduction scatters into per-vertex totals instead of summing.  Measured
#: on the seven e2e shapes at seed 0 (2-vCPU x86-64 host): 1.4–1.8× for
#: the priority kernel, which also credits wedge centres, and 0.9–2.0×
#: for the blocked panel kernel.
_VERTEX_PASS_COST = 1.7


def _priority_seconds(graph, cal: CalibrationTable, wedges: int) -> float:
    """Modeled count-kernel time: one relabel pass plus its wedges."""
    return (
        graph.n_edges * cal.ns_per_edge("priority")
        + wedges * cal.ns_per_op("priority")
    ) * 1e-9


def _priority_row(graph, cal: CalibrationTable) -> Plan:
    """The vertex-priority count candidate."""
    from repro.core.priority import priority_wedge_work

    wedges = priority_wedge_work(graph)
    return Plan(
        workload="count", invariant=None, storage="csr",
        strategy="priority", executor="serial", workers=1,
        modeled_ops=wedges, est_seconds=_priority_seconds(graph, cal, wedges),
        reason=f"vertex-priority filter: {wedges:,} wedges expanded, each "
               "butterfly counted once from its highest-degree vertex",
    )


def _priority_vertex_row(graph, cal, workload, side, k, rounds) -> Plan:
    """The one-pass per-vertex priority candidate (both sides per round)."""
    from repro.core.priority import priority_wedge_work

    wedges = priority_wedge_work(graph)
    est = _priority_seconds(graph, cal, wedges) * _VERTEX_PASS_COST
    return Plan(
        workload=workload, invariant=None, storage="csr",
        strategy="priority", executor="serial", workers=1, side=side, k=k,
        modeled_ops=wedges * rounds, est_seconds=est * rounds,
        reason=f"vertex-priority pass: {wedges:,} wedges credit both sides "
               f"at once, ~{rounds} round(s) modeled",
    )


def _check_priority_pins(pin_pool: bool, layout: str | None) -> None:
    """The priority kernels build their own rank-space adjacency from the
    raw graph, serially: a pool or a storage layout cannot apply."""
    if pin_pool:
        raise ValueError(
            "strategy 'priority' is serial-only; drop executor='shared' "
            "and workers > 1"
        )
    if layout not in (None, "raw"):
        raise ValueError(
            f"strategy 'priority' reads the raw layout (got layout={layout!r})"
        )


def _count_candidates(
    graph, cal, budget, invariant, strategy, executor, workers,
    block_size, family_only, layout=None,
) -> list[Plan]:
    pin_pool = executor == "shared" or (workers is not None and workers > 1)
    if strategy == "priority":
        # the kernel ranks both sides together: no family member
        if invariant is not None:
            raise ValueError(
                "strategy 'priority' ranks both sides together and takes "
                f"no invariant (got invariant={invariant!r})"
            )
        _check_priority_pins(pin_pool, layout)
        return [_priority_row(graph, cal)]
    invariants = (
        [resolve_invariant(invariant).number]
        if invariant is not None
        else list(_AUTO_INVARIANTS)
    )
    # order smaller side first so ties break the paper's way
    if invariant is None and graph.n_right > graph.n_left:
        invariants.reverse()
    unblocked = ("adjacency", "scratch", "spmv")
    if strategy is None:
        strategies = unblocked if family_only else COUNT_STRATEGIES
    else:
        strategies = (strategy,)
    pool_workers = _pool_workers(workers)
    pin_serial = (executor == "serial") or (workers == 1)
    emit_serial = not pin_pool
    emit_parallel = (
        not pin_serial and not family_only and pool_workers > 1
    )

    out: list[Plan] = []
    works: dict[int, _SideWork] = {}
    for number in invariants:
        work = works[number] = _SideWork(graph, number)
        inv = work.invariant
        side = "right" if inv.storage == "csc" else "left"
        for strat in strategies:
            if strat == "priority":
                continue  # side-free: scored once, below
            if strat == "wedge":
                from repro.core.parallel import DEFAULT_WEDGE_SHARD_BUDGET

                shards = max(
                    1,
                    -(-work.adjacency_ops // DEFAULT_WEDGE_SHARD_BUDGET),
                )
                serial_est = (
                    work.adjacency_ops * cal.ns_per_op("wedge")
                    + shards * cal.ns_per_shard
                ) * 1e-9
                if emit_serial and strategy == "wedge":
                    # auto mode skips the serial wedge row (it shadows the
                    # blocked panel kernel); a pinned wedge strategy still
                    # plans on single-core machines
                    out.append(Plan(
                        workload="count", invariant=number,
                        storage=inv.storage, strategy="wedge",
                        executor="serial", workers=1, side=side,
                        modeled_ops=work.adjacency_ops,
                        est_seconds=serial_est,
                        reason="wedge-partitioned fused panel reduction, "
                               f"~{shards} cache-resident shard(s) run "
                               "serially",
                    ))
                if emit_parallel:
                    est = _cost_parallel(serial_est, pool_workers, cal)
                    out.append(Plan(
                        workload="count", invariant=number,
                        storage=inv.storage, strategy="wedge",
                        executor="shared", workers=pool_workers, side=side,
                        modeled_ops=work.adjacency_ops, est_seconds=est,
                        reason=f"~{shards} equal-wedge-work shard(s) "
                               "(≤2^18 wedges each) on the shared pool, "
                               "fused panel reduction per shard",
                    ))
                continue
            if strat == "blocked":
                if not emit_serial:  # the panel kernel is serial-only
                    continue
                b = block_size or _auto_block_size(work, budget)
                est = _cost_blocked(work, b, cal)
                out.append(Plan(
                    workload="count", invariant=number, storage=inv.storage,
                    strategy="blocked", executor="serial", workers=1,
                    block_size=b, side=side,
                    modeled_ops=work.adjacency_ops, est_seconds=est,
                    reason="panel kernel amortises per-pivot overhead "
                           f"over {work.pivots} pivots",
                ))
                continue
            if emit_serial:
                est = _cost_unblocked(work, strat, cal)
                out.append(Plan(
                    workload="count", invariant=number, storage=inv.storage,
                    strategy=strat, executor="serial", workers=1,
                    side=side, modeled_ops=work.ops(strat), est_seconds=est,
                    reason=f"unblocked {strat} sweep of the "
                           f"{'smaller' if work.pivots == min(graph.n_left, graph.n_right) else 'larger'}"
                           " side",
                ))
            if emit_parallel:
                serial_est = _cost_unblocked(work, strat, cal)
                est = _cost_parallel(serial_est, pool_workers, cal)
                out.append(Plan(
                    workload="count", invariant=number, storage=inv.storage,
                    strategy=strat, executor="shared", workers=pool_workers,
                    side=side, modeled_ops=work.ops(strat), est_seconds=est,
                    reason="shared pool: modeled serial cost "
                           f"{serial_est * 1e3:.2f} ms vs dispatch overhead "
                           f"{cal.parallel_dispatch_ns * 1e-6:.2f} ms",
                ))
    if family_only and layout is None:
        return out  # count_butterflies' contract: raw views unless pinned
    expanded: list[Plan] = []
    for cand in out:
        expanded.extend(
            _layout_rows(cand, works[cand.invariant], cal, layout)
        )
    if (
        strategy is None and invariant is None and not family_only
        and emit_serial and layout in (None, "raw")
    ):
        expanded.append(_priority_row(graph, cal))
    return expanded


def _vertex_candidates(
    graph, cal, budget, executor, workers, block_size, side,
    rounds=1, k=None, workload="vertex-counts", layout=None, strategy=None,
) -> list[Plan]:
    pin_pool = executor == "shared" or (workers is not None and workers > 1)
    if strategy == "priority":
        _check_priority_pins(pin_pool, layout)
        return [_priority_vertex_row(graph, cal, workload, side, k, rounds)]
    # pivot side of the per-vertex kernel == the counted side
    number = 6 if side == "left" else 2  # rows ↔ CSR, columns ↔ CSC
    work = _SideWork(graph, number)
    storage = "csr" if side == "left" else "csc"
    b = block_size or max(_auto_block_size(work, budget), 128)
    serial_est = _cost_blocked(work, b, cal) * _VERTEX_PASS_COST * rounds
    pool_workers = _pool_workers(workers)
    pin_serial = (executor == "serial") or (workers == 1)
    out = []
    if not pin_pool:
        out.append(Plan(
            workload=workload, invariant=None, storage=storage,
            strategy="blocked", executor="serial", workers=1, block_size=b,
            side=side, k=k, modeled_ops=work.adjacency_ops * rounds,
            est_seconds=serial_est,
            reason=f"serial panel kernel, ~{rounds} round(s) modeled",
        ))
    if not pin_serial and pool_workers > 1:
        est = _cost_parallel(serial_est / rounds, pool_workers, cal) * rounds
        out.append(Plan(
            workload=workload, invariant=None, storage=storage,
            strategy="blocked", executor="shared", workers=pool_workers,
            block_size=b, side=side, k=k,
            modeled_ops=work.adjacency_ops * rounds, est_seconds=est,
            reason="warm shared pool amortised across fixpoint rounds",
        ))
    if workload == "vertex-counts":  # peeling rounds mutate views: raw-only
        out = [row for c in out for row in _layout_rows(c, work, cal, layout)]
    if strategy is None and not pin_pool and layout in (None, "raw"):
        out.append(_priority_vertex_row(graph, cal, workload, side, k, rounds))
    return out


def _wing_candidates(graph, cal, budget, block_size, k) -> list[Plan]:
    work = _SideWork(graph, 6)  # left/CSR traversal of the support kernel
    b = block_size or max(16, min(_auto_block_size(work, budget), 1024))
    rounds = 3
    # the support kernel does the wedge expansion plus a same-size
    # searchsorted resolve pass → ~2× the adjacency ops per round
    ops = 2 * work.adjacency_ops * rounds
    panels = -(-work.pivots // b) if work.pivots else 0
    est = (
        ops * cal.ns_per_op("blocked") + panels * rounds * cal.ns_per_panel
    ) * 1e-9
    return [Plan(
        workload="wing", invariant=None, storage="csr", strategy="blocked",
        executor="serial", workers=1, block_size=b, side="left", k=k,
        modeled_ops=ops, est_seconds=est,
        reason=f"blocked edge-support kernel, ~{rounds} round(s) modeled",
    )]


def _batch_endpoints(batch):
    """(rows, cols) int64 arrays of every edge in a (insert, delete) pair."""
    import numpy as np

    rows_parts, cols_parts = [], []
    for part in batch or ():
        if part is None:
            continue
        arr = np.asarray(part if hasattr(part, "shape") else list(part))
        if arr.size == 0:
            continue
        arr = arr.reshape(-1, 2).astype(np.int64, copy=False)
        rows_parts.append(arr[:, 0])
        cols_parts.append(arr[:, 1])
    if not rows_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(rows_parts), np.concatenate(cols_parts)


def _stream_candidates(graph, cal, strategy, batch) -> list[Plan]:
    """Score batched incremental maintenance vs a from-scratch recount.

    The incremental path's dominant term is the *touched* wedge work —
    Σ deg(u) + deg(v) over the batch edges (the delta-wedge enumeration)
    — plus an O(nnz) sorted-merge/rebuild of both compressed views.  The
    recount rebuilds every count with one per-vertex priority pass over
    both sides (Ξ falls out of the per-left sums), so it pays the
    priority wedge work and its per-vertex reduction once.
    """
    from repro.core.priority import priority_wedge_work
    from repro.core.workinfo import touched_wedge_work

    rows, cols = _batch_endpoints(batch)
    touched = touched_wedge_work(graph, rows, cols) if rows.size else 0
    nnz = int(graph.n_edges)
    batch_edges = int(rows.size)

    inc_ops = touched + nnz + batch_edges
    inc_est = (
        inc_ops * cal.ns_per_op("stream") + cal.stream_batch_ns
    ) * 1e-9

    out = []
    if strategy in (None, "incremental"):
        out.append(Plan(
            workload="stream_apply", invariant=None, storage="csr",
            strategy="incremental", executor="serial", workers=1,
            modeled_ops=inc_ops, est_seconds=inc_est,
            reason=f"delta-wedge maintenance touches ~{touched:,} wedges "
                   f"for {batch_edges} edit(s) (+O(nnz) view rebuild)",
        ))
    if strategy in (None, "recount"):
        rec_ops = priority_wedge_work(graph)
        rec_est = (
            _priority_seconds(graph, cal, rec_ops) * _VERTEX_PASS_COST
            + cal.stream_batch_ns * 1e-9
        )
        out.append(Plan(
            workload="stream_apply", invariant=None, storage="csr",
            strategy="recount", executor="serial", workers=1,
            modeled_ops=rec_ops, est_seconds=rec_est,
            reason="from-scratch recount: one per-vertex priority pass "
                   "over both sides",
        ))
    return out


# ----------------------------------------------------------------------
# the front door
# ----------------------------------------------------------------------
def plan(
    graph: BipartiteGraph,
    workload: str = "count",
    *,
    budget: int | None = None,
    invariant=None,
    strategy: str | None = None,
    executor: str | None = None,
    workers: int | None = None,
    block_size: int | None = None,
    side: str | None = None,
    k: int | None = None,
    batch: tuple | None = None,
    layout: str | None = None,
    family_only: bool = False,
    calibration: CalibrationTable | None = None,
) -> Plan:
    """Choose the cheapest execution plan for ``workload`` on ``graph``.

    Non-None keyword arguments pin the corresponding plan field (the
    planner only decides what the caller left open); ``budget`` bounds
    the transient wedge working set of panel kernels (element count, see
    :data:`DEFAULT_PLAN_BLOCK_BUDGET`); ``batch=(insert, delete)`` gives
    the ``stream_apply`` workload its pending edit batch.  Returns the
    winning :class:`Plan` with the full scored candidate table attached
    (``plan.candidates``) for :func:`explain`.
    """
    cal = calibration or load_calibration()
    with obs.span("engine.plan", workload=workload) as sp:
        cands = candidate_plans(
            graph, workload, budget=budget, invariant=invariant,
            strategy=strategy, executor=executor, workers=workers,
            block_size=block_size, side=side, k=k, batch=batch,
            layout=layout, family_only=family_only, calibration=cal,
        )
        if not cands:  # fully over-constrained (e.g. executor="serial",
            # workers=4): fall back to an unconstrained table
            cands = candidate_plans(
                graph, workload, budget=budget, invariant=invariant,
                k=k, side=side, batch=batch, layout=layout,
                family_only=family_only, calibration=cal,
            )
        best = min(cands, key=lambda c: c.est_seconds)
        chosen = best.with_(
            candidates=tuple(cands),
        )
        if obs._enabled:
            # (the span itself records engine.plan.calls/.seconds)
            obs.inc(f"engine.plan.workload.{workload}")
            obs.inc(f"engine.plan.strategy.{chosen.strategy}")
            obs.inc(f"engine.plan.executor.{chosen.executor}")
            if chosen.invariant is not None:
                obs.inc(f"engine.plan.invariant.{chosen.invariant}")
            sp.set_attributes(
                chosen=chosen.label,
                invariant=chosen.invariant,
                strategy=chosen.strategy,
                layout=chosen.layout,
                executor=chosen.executor,
                workers=chosen.workers,
                modeled_ops=chosen.modeled_ops,
                est_ms=round(chosen.est_ms, 4),
                candidates=len(cands),
                calibration=cal.origin,
            )
    return chosen


def select_count_invariant(graph: BipartiteGraph) -> int:
    """Cheapest family member for a sequential count (2 or 6).

    The helper other layers use instead of re-implementing the
    smaller-side rule inline; delegates to the cost model so a calibrated
    machine can disagree with the naive rule on skewed-degree graphs.
    """
    chosen = plan(graph, "count", family_only=True, executor="serial")
    return chosen.invariant if chosen.invariant is not None else 2


# ----------------------------------------------------------------------
# explain
# ----------------------------------------------------------------------
def explain(
    the_plan: Plan,
    graph: BipartiteGraph | None = None,
    calibration: CalibrationTable | None = None,
) -> str:
    """Render a plan's decision table (candidates, modeled ops, est ms).

    Works from the plan alone (its attached candidate table); ``graph``
    adds a structural summary line and ``calibration`` a provenance line.
    """
    lines = [f"plan for workload '{the_plan.workload}'"]
    if graph is not None:
        lines.append(_graph_note(graph))
    cal = calibration or load_calibration()
    lines.append(f"calibration: {cal.origin}")
    cands = list(the_plan.candidates) or [the_plan]
    cands.sort(key=lambda c: c.est_seconds)
    header = ("", "candidate", "inv", "storage", "layout", "executor",
              "modeled ops", "est ms")
    rows = []
    for cand in cands:
        mark = "*" if _same_decision(cand, the_plan) else ""
        rows.append((
            mark,
            cand.label,
            str(cand.invariant) if cand.invariant is not None else "-",
            cand.storage,
            cand.layout,
            f"{cand.executor}x{cand.workers}",
            f"{cand.modeled_ops:,}",
            f"{cand.est_ms:.3f}",
        ))
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
    ]
    lines.append("  ".join(
        h.ljust(widths[i]) for i, h in enumerate(header)
    ).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(
            r[i].ljust(widths[i]) for i in range(len(header))
        ).rstrip())
    lines.append(f"chosen: {the_plan.label} — {the_plan.reason}")
    return "\n".join(lines)


def _same_decision(a: Plan, b: Plan) -> bool:
    return (
        a.invariant == b.invariant
        and a.strategy == b.strategy
        and a.executor == b.executor
        and a.workers == b.workers
        and a.block_size == b.block_size
        and a.side == b.side
        and a.layout == b.layout
    )
