"""Rule planner: workload + pins → one :class:`Plan`.

The paper's Section V result is that no single family member wins.  The
vertex-priority kernel (Wang et al., arXiv:1812.00283; per-vertex form
per Shi & Shun, arXiv:1907.08607) sidesteps that choice: it charges each
butterfly to its highest-degree vertex, so it has no traversed side, and
measured on every e2e shape it ties or beats the best fixed-side member.
So the planner is a fixed rule, not a cost model:

- **No pins** — ``count``, ``vertex-counts``, ``tip`` and ``wing``
  plan ``priority``: serial, raw, with ``modeled_ops``/``est_seconds``
  from :func:`repro.core.priority.priority_wedge_work` and the
  calibration table (a ``tip`` plan on a graph a tip decomposition left
  its pair table on prices the table's entries instead, as ``k_tip``
  peels from it; a ``wing`` plan models one support pass and no
  seconds, as its fixpoint's rounds are not modelled).  Pins priority
  already satisfies (``executor="serial"``, ``workers=1``,
  ``layout="raw"``) keep it.  ``vertex-counts``, ``tip`` and ``wing``
  run nothing else: any other pin on them raises.
- **Pins** (``count`` only) — every field left open is filled: the
  invariant by the smaller-side rule (:func:`select_count_invariant`),
  the executor is ``shared`` iff ``executor="shared"`` or
  ``workers > 1``, the strategy is ``blocked`` when serial and
  ``wedge`` when shared, the layout is ``raw`` and the panel width
  :func:`_auto_block_size`.  Contradictory pins raise.
- **stream_apply** — the one scored decision left: batched incremental
  maintenance against a from-scratch recount, because which is cheaper
  depends on the batch size against the graph size.

Plans the rule does not model carry ``est_seconds=None``; the drift
ledger skips them.
"""

from __future__ import annotations

from repro import obs
from repro._types import pool_width
from repro.core.workinfo import (
    matrices_for_side,
    pivot_work_estimate,
    resolve_invariant,
)
from repro.engine.calibration import CalibrationTable, load_calibration
from repro.engine.plan import (
    COUNT_STRATEGIES,
    EXECUTORS,
    LAYOUTS,
    PRIORITY_ONLY,
    STREAM_STRATEGIES,
    WORKLOADS,
    Plan,
)
from repro.graphs.bipartite import BipartiteGraph

__all__ = [
    "plan",
    "candidate_plans",
    "count_members",
    "explain",
    "select_count_invariant",
]

#: A per-vertex pass costs this many passes of its count kernel: the
#: reduction scatters into per-vertex totals instead of summing, and also
#: credits wedge centres.  Measured on the seven e2e shapes at seed 0
#: (2-vCPU x86-64 host, median of 21 interleaved calls each, two runs):
#: 1.08–1.55× the priority count; ~1.1× on the three small shapes, whose
#: sorted panels credit only the few repeated pairs, and 1.33–1.55× on
#: occupations, github, dense and skewed (the stream shape).  The
#: constant follows the large shapes, where an estimate's error costs
#: the most.
_VERTEX_PASS_COST = 1.5

#: A tip peel over a pair table costs this many priority wedges per
#: table entry: each peeled row's entries are gathered and subtracted
#: once, with no sort.  Measured with ``k_tip`` at the median tip number
#: on the e2e ``occupations`` shape, seeds 0–2 (2-vCPU x86-64 host):
#: 0.31–0.35 on the vertex-space table, including the final
#: survivor-graph build; on the survivor-space table the same ``k_tip``
#: takes 0.84–0.93× that table's time (8 alternating runs), so 0.26–0.33.
_TABLE_ENTRY_COST = 0.3

#: Rule lines ``explain`` prints, keyed by which rule fired.
_RULES = {
    "priority": "no fixed-side pin -> vertex-priority kernel, serial, raw",
    "pinned": "pins given on a count -> invariant: pinned, else the "
              "smaller side's suffix member; strategy: pinned, else "
              "blocked (serial) / wedge (shared); layout: pinned, else raw",
    "stream_apply": "stream_apply -> score incremental against recount, "
                    "keep the cheaper estimate",
}


def select_count_invariant(graph: BipartiteGraph) -> int:
    """The paper's Section V smaller-side rule: 2 or 6.

    The forward look-ahead (suffix) member that pivots on the smaller
    side: 2 (columns) when ``n_right <= n_left``, else 6 (rows).  The one
    definition every layer uses — pinned plans without an invariant and
    hand-built plans in :func:`repro.engine.execute` both resolve here.
    """
    return 2 if graph.n_right <= graph.n_left else 6


# ----------------------------------------------------------------------
# work model pieces
# ----------------------------------------------------------------------
def _side_work(graph: BipartiteGraph, number: int) -> tuple[int, int]:
    """(wedge-expansion ops, pivots) of member ``number``'s traversed side."""
    pivot_major, complementary = matrices_for_side(
        graph, resolve_invariant(number).side
    )
    ops = int(pivot_work_estimate(pivot_major, complementary).sum())
    return ops, int(pivot_major.major_dim)


def _auto_block_size(ops: int, pivots: int) -> int:
    """Panel width that keeps a panel's wedge expansion ≈ within
    :data:`repro.core.blocked.DEFAULT_PLAN_BLOCK_BUDGET`."""
    from repro.core.blocked import DEFAULT_PLAN_BLOCK_BUDGET

    mean = ops / pivots if pivots else 0.0
    if mean <= 0:
        return 64
    return max(16, min(int(DEFAULT_PLAN_BLOCK_BUDGET / max(mean, 1.0)), 4096))


def _priority_seconds(graph, cal: CalibrationTable, wedges: int) -> float:
    """Modeled count-kernel time: one relabel pass plus its wedges."""
    return (
        graph.n_edges * cal.ns_per_edge("priority")
        + wedges * cal.ns_per_op("priority")
    ) * 1e-9


def _priority_row(graph, cal, workload="count", side="left", k=None) -> Plan:
    """The vertex-priority plan; per-vertex workloads pay a scatter
    surcharge per pass and a tip peel ~3 passes, or — where a tip
    decomposition left its pair table on the graph — one walk of the
    table's entries, priced without counting a wedge.  A wing peel
    models one edge-support pass and is not priced."""
    table = None
    if workload == "tip":
        from repro.core.peeling.buckets import cached_pair_table

        table = cached_pair_table(graph, side)
    if table is not None:
        ops = int(table[0][1].size)
        est = ops * cal.ns_per_op("priority") * _TABLE_ENTRY_COST * 1e-9
        reason = (
            f"pair-table peel on the {side} side: subtraction rounds over "
            f"the {ops:,} entries a tip decomposition left"
        )
    else:
        from repro.core.priority import priority_wedge_work

        wedges = priority_wedge_work(graph)
        est = _priority_seconds(graph, cal, wedges)
        rounds = 3 if workload == "tip" else 1
        if workload != "count":
            est *= _VERTEX_PASS_COST * rounds
        ops = wedges * rounds
        reason = (
            f"vertex-priority filter: {wedges:,} wedges expanded, each "
            "butterfly counted once from its highest-degree vertex"
        )
        if workload == "tip":
            reason = f"~{rounds} priority recount rounds ({wedges:,} wedges each)"
        elif workload == "wing":  # the fixpoint's rounds are not modelled
            est = None
            reason = f"one ranked edge-support pass ({wedges:,} wedges) a round"
    return Plan(
        workload=workload, invariant=None, storage="csr",
        strategy="priority", executor="serial", workers=1, side=side, k=k,
        modeled_ops=ops, est_seconds=est, reason=reason,
    )


# ----------------------------------------------------------------------
# the rule
# ----------------------------------------------------------------------
def _check_pins(
    workload, invariant, strategy, executor, workers, layout,
    block_size=None, k=None,
) -> bool:
    """Reject unknown values and pin sets no plan satisfies; returns
    whether a pool is pinned."""
    pool = executor == "shared" or (workers is not None and workers > 1)
    got = f"got executor={executor!r}" if executor else f"got workers={workers}"
    stream = workload == "stream_apply"
    allowed = STREAM_STRATEGIES if stream else COUNT_STRATEGIES
    for bad, message in (
        (workload not in WORKLOADS,
         f"unknown workload {workload!r}; expected one of {WORKLOADS}"),
        (workers is not None and workers < 1,
         f"n_workers must be >= 1, got {workers}"),
        (block_size is not None and block_size < 1,
         f"block_size must be >= 1, got {block_size}"),
        (k is not None and k < 0, f"k must be non-negative, got {k}"),
        (executor not in (None, *EXECUTORS),
         f"unknown executor {executor!r}; expected one of {EXECUTORS}"),
        (layout not in (None, *LAYOUTS),
         f"unknown layout {layout!r}; expected one of {LAYOUTS}"),
        (strategy not in (None, *allowed),
         f"unknown {'stream ' if stream else ''}strategy {strategy!r}; "
         f"expected one of {allowed}"),
        (stream and layout not in (None, "raw"),
         "the storage-layout axis applies to 'count' plans; workload "
         f"{workload!r} runs on raw views"),
        (workload in PRIORITY_ONLY and (
            invariant is not None or block_size is not None
            or layout not in (None, "raw")
            or strategy not in (None, "priority")
        ),
         f"workload {workload!r} runs only the vertex-priority kernel, "
         "which takes no invariant, block_size or storage-layout axis pin "
         f"(got invariant={invariant!r}, strategy={strategy!r}, "
         f"block_size={block_size!r}, layout={layout!r})"),
        (executor == "serial" and pool,
         f"conflicting pins: executor='serial' with workers={workers}"),
        # the priority kernel ranks both sides together, serially, raw
        (strategy == "priority" and invariant is not None,
         "strategy 'priority' ranks both sides together and takes no "
         f"invariant (got invariant={invariant!r})"),
        (strategy == "priority" and pool,
         f"conflicting pins: strategy 'priority' is serial-only ({got})"),
        (pool and workload in PRIORITY_ONLY,
         f"conflicting pins: workload {workload!r} is serial-only ({got})"),
        (strategy == "priority" and layout not in (None, "raw"),
         f"strategy 'priority' reads the raw layout (got layout={layout!r})"),
        (pool and workload == "count" and strategy == "blocked",
         f"conflicting pins: strategy 'blocked' is serial-only ({got})"),
        (pool and layout == "mmap",
         f"conflicting pins: layout 'mmap' is serial-only ({got})"),
    ):
        if bad:
            raise ValueError(message)
    return pool


def count_members():
    """Every pinned ``count`` member the rule accepts, as plan pins.

    Filters invariant × :data:`COUNT_STRATEGIES` × :data:`EXECUTORS`
    through the pin check :func:`plan` applies, so the planner stays the
    one place that knows which pin sets exist; a strategy that takes no
    invariant (``priority``) appears once, unnumbered.  Each member is a
    dict of ``invariant``/``strategy``/``executor`` pins, planned by
    ``plan(graph, "count", **member)`` (a ``shared`` member on the pool
    size the rule fills unless ``workers`` is pinned as well).
    """
    for strategy in COUNT_STRATEGIES:
        for executor in EXECUTORS:
            numbers = [
                number for number in range(1, 9)
                if _accepts(number, strategy, executor)
            ]
            if not numbers and _accepts(None, strategy, executor):
                numbers = [None]
            for number in numbers:
                yield {
                    "invariant": number, "strategy": strategy,
                    "executor": executor,
                }


def _accepts(invariant, strategy, executor) -> bool:
    try:
        _check_pins("count", invariant, strategy, executor, None, None)
    except ValueError:
        return False
    return True


def candidate_plans(
    graph: BipartiteGraph,
    workload: str = "count",
    *,
    invariant=None,
    strategy: str | None = None,
    executor: str | None = None,
    workers: int | None = None,
    block_size: int | None = None,
    side: str | None = None,
    k: int | None = None,
    batch: tuple | None = None,
    layout: str | None = None,
    calibration: CalibrationTable | None = None,
) -> list[Plan]:
    """The rows ``plan`` chooses from: one for every workload but
    ``stream_apply``, whose two scored rows come cheapest first.

    Any non-None keyword pins the corresponding plan field; the rule
    fills the rest.  ``stream_apply`` takes the pending edit batch via
    ``batch=(insert, delete)`` (edge lists / (k, 2) arrays).
    """
    pool = _check_pins(
        workload, invariant, strategy, executor, workers, layout, block_size, k
    )
    cal = calibration or load_calibration()
    if workload == "stream_apply":
        rows = _stream_candidates(graph, cal, strategy, batch)
        return sorted(rows, key=lambda c: c.est_seconds)
    side = side or "left"
    if strategy == "priority" or (
        strategy is None and invariant is None and block_size is None
        and not pool and layout in (None, "raw")
    ):
        return [_priority_row(graph, cal, workload, side, k)]
    if pool and workers is None:
        # at least two: a pinned pool runs on the pool even on one CPU
        workers = max(2, pool_width())
    row = Plan(
        workload=workload, executor="shared" if pool else "serial",
        workers=workers if pool else 1, layout=layout or "raw",
        side=side, k=k,
    )
    return [_count_row(graph, row, invariant, strategy, block_size)]


def _count_row(graph, row, invariant, strategy, block_size) -> Plan:
    """Fill a pinned count plan: member, strategy and panel width."""
    number = (
        resolve_invariant(invariant).number if invariant is not None
        else select_count_invariant(graph)
    )
    if strategy is None:
        strategy = "wedge" if row.executor == "shared" else "blocked"
    ops, pivots = _side_work(graph, number)
    storage = resolve_invariant(number).storage
    side = "right" if storage == "csc" else "left"
    return row.with_(
        invariant=number, storage=storage, strategy=strategy, side=side,
        block_size=(
            block_size or _auto_block_size(ops, pivots)
            if strategy == "blocked" else None
        ),
        modeled_ops=ops, est_seconds=None,
        reason=f"{strategy} sweep of member {number} over its "
               f"{pivots} {side}-side pivots",
    )


def _batch_endpoints(graph, batch):
    """(rows, cols) int64 arrays of every edge in a (insert, delete) pair,
    and the batch's phase count: one per side holding edits, at least 1.

    Ids pass the check ``StreamingButterflyCounter.apply`` makes
    (:func:`~repro.core.stream.counter.batch_edges`), so a batch apply
    would reject is rejected here too, before any of it is priced.
    """
    import numpy as np

    from repro.core.stream.counter import batch_edges

    parts = [
        batch_edges(part, graph.n_left, graph.n_right)
        for part in batch or () if part is not None
    ]
    edges = np.concatenate(parts or [np.empty((0, 2), dtype=np.int64)])
    phases = max(1, sum(1 for part in parts if len(part)))
    return edges[:, 0], edges[:, 1], phases


def _stream_candidates(graph, cal, strategy, batch) -> list[Plan]:
    """Score batched incremental maintenance vs a from-scratch recount.

    The incremental path's dominant term is the *touched* wedge work —
    Σ deg(u) + deg(v) over the batch edges (the delta-wedge enumeration)
    — plus the O(nnz) copies that splice the edge keys and both
    compressed views.  The recount rebuilds every count with one
    per-vertex priority pass over both sides (Ξ falls out of the
    per-left sums) after each phase, so a batch with deletes and inserts
    pays the priority wedge work and its per-vertex reduction twice.

    Pricing that work is itself an O(E) pass, so an unpinned recount row
    is priced exactly only when it could win: its relabel floor (the
    same estimate with zero wedges) already above the incremental
    estimate leaves the row at that floor, marked pruned.
    """
    from repro.core.priority import priority_wedge_work
    from repro.core.workinfo import touched_wedge_work

    rows, cols, phases = _batch_endpoints(graph, batch)  # checked under any pin
    row = Plan(workload="stream_apply", storage="csr")
    out = []
    if strategy in (None, "incremental"):
        touched = touched_wedge_work(graph, rows, cols) if rows.size else 0
        ops = touched + int(graph.n_edges) + int(rows.size)
        out.append(row.with_(
            strategy="incremental", modeled_ops=ops,
            est_seconds=(ops * cal.ns_per_op("stream") + cal.stream_batch_ns) * 1e-9,
            reason=f"delta-wedge maintenance touches ~{touched:,} wedges "
                   f"for {rows.size} edit(s)",
        ))
    passes = _VERTEX_PASS_COST * phases
    floor = _priority_seconds(graph, cal, 0) * passes + cal.stream_batch_ns * 1e-9
    if strategy is None and floor > out[0].est_seconds:
        out.append(row.with_(
            strategy="recount", modeled_ops=int(graph.n_edges),
            est_seconds=floor,
            reason=f"from-scratch recount, pruned: its O(E) relabel floor "
                   f"alone ({floor * 1e3:.3f} ms) exceeds the incremental "
                   "estimate, so its wedge work is not priced",
        ))
    elif strategy in (None, "recount"):
        ops = priority_wedge_work(graph)
        out.append(row.with_(
            strategy="recount", modeled_ops=ops,
            est_seconds=_priority_seconds(graph, cal, ops) * passes
            + cal.stream_batch_ns * 1e-9,
            reason="from-scratch recount: one per-vertex priority pass "
                   f"over both sides per phase, {phases} phase(s)",
        ))
    return out


# ----------------------------------------------------------------------
# the front door
# ----------------------------------------------------------------------
def plan(
    graph: BipartiteGraph,
    workload: str = "count",
    *,
    invariant=None,
    strategy: str | None = None,
    executor: str | None = None,
    workers: int | None = None,
    block_size: int | None = None,
    side: str | None = None,
    k: int | None = None,
    batch: tuple | None = None,
    layout: str | None = None,
    calibration: CalibrationTable | None = None,
) -> Plan:
    """The execution plan the rule gives ``workload`` on ``graph``.

    Non-None keyword arguments pin the corresponding plan field (the
    rule fills what the caller left open; contradictory pins raise
    ``ValueError``); ``batch=(insert, delete)`` gives the ``stream_apply`` workload its
    pending edit batch.  The returned :class:`Plan` carries the rows it
    was chosen from (``plan.candidates``) for :func:`explain`.
    """
    cal = calibration or load_calibration()
    with obs.span("engine.plan", workload=workload) as sp:
        cands = candidate_plans(
            graph, workload, invariant=invariant,
            strategy=strategy, executor=executor, workers=workers,
            block_size=block_size, side=side, k=k, batch=batch,
            layout=layout, calibration=cal,
        )
        chosen = cands[0].with_(candidates=tuple(cands))
        if obs._enabled:
            # (the span itself records engine.plan.calls/.seconds)
            obs.inc(f"engine.plan.workload.{workload}")
            obs.inc(f"engine.plan.strategy.{chosen.strategy}")
            obs.inc(f"engine.plan.executor.{chosen.executor}")
            if chosen.invariant is not None:
                obs.inc(f"engine.plan.invariant.{chosen.invariant}")
            sp.set_attributes(
                chosen=chosen.label, invariant=chosen.invariant,
                strategy=chosen.strategy, layout=chosen.layout,
                executor=chosen.executor, workers=chosen.workers,
                modeled_ops=chosen.modeled_ops, est_ms=_ms(chosen),
                candidates=len(cands), calibration=cal.origin,
            )
    return chosen


def _ms(p: Plan) -> float | None:
    return None if p.est_seconds is None else round(p.est_ms, 4)


# ----------------------------------------------------------------------
# explain
# ----------------------------------------------------------------------
def explain(
    the_plan: Plan,
    graph: BipartiteGraph | None = None,
    calibration: CalibrationTable | None = None,
) -> str:
    """Render the rule that fired and the rows it chose from.

    Works from the plan alone (its attached rows); ``graph`` adds a
    structural summary line and ``calibration`` a provenance line.
    """
    lines = [f"plan for workload '{the_plan.workload}'"]
    if graph is not None:
        ratio = graph.n_left / graph.n_right if graph.n_right else float("inf")
        lines.append(
            f"graph: {graph.n_left}x{graph.n_right}, nnz={graph.n_edges}, "
            f"side_ratio={ratio:.3g}"
        )
    cal = calibration or load_calibration()
    lines.append(f"calibration: {cal.origin}")
    rule = the_plan.workload
    if rule not in _RULES:
        rule = "priority" if the_plan.strategy == "priority" else "pinned"
    lines.append(f"rule: {_RULES[rule]}")
    header = ("", "candidate", "inv", "storage", "layout", "executor",
              "modeled ops", "est ms")
    rows = [(
        "*" if cand == the_plan else "",
        cand.label,
        "-" if cand.invariant is None else str(cand.invariant),
        cand.storage,
        cand.layout,
        f"{cand.executor}x{cand.workers}",
        f"{cand.modeled_ops:,}",
        "-" if cand.est_seconds is None else f"{cand.est_ms:.3f}",
    ) for cand in the_plan.candidates or (the_plan,)]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
    ]
    for r in (header, tuple("-" * w for w in widths), *rows):
        lines.append("  ".join(
            r[i].ljust(widths[i]) for i in range(len(header))
        ).rstrip())
    lines.append(f"chosen: {the_plan.label} — {the_plan.reason}")
    lines.extend(
        f"  vs {cand.label} — {cand.reason}"
        for cand in the_plan.candidates or () if cand != the_plan
    )
    return "\n".join(lines)
