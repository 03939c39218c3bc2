"""The :class:`Plan` record — one fully-specified execution decision.

A plan pins every knob the counting/peeling entry points used to expose
separately: which family member (``invariant``, whose compressed storage
the read-only ``storage`` names), which per-pivot update strategy
(``strategy``), which executor runs it (``executor`` + ``workers``), what
panel width the blocked kernels use (``block_size``), and which vertex
side per-vertex workloads address (``side``).  The rule planner
(:func:`repro.engine.plan`) produces plans; :func:`repro.engine.execute`
dispatches them; :func:`repro.engine.explain` renders which rule fired.

Plans are deterministic, hashable values: the same (graph, workload,
pins, calibration) always yields the same plan, which is what lets
``explain`` output and trace attributes agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "Plan",
    "WORKLOADS",
    "COUNT_STRATEGIES",
    "STREAM_STRATEGIES",
    "EXECUTORS",
    "LAYOUTS",
]

#: Workloads the engine can plan: a global butterfly count, a per-vertex
#: participation vector, the two peeling fixpoints (whose unit of
#: per-round work is a per-vertex / per-edge count), and a streaming
#: batch application (incremental maintenance vs from-scratch recount).
WORKLOADS: tuple[str, ...] = (
    "count", "vertex-counts", "tip", "wing", "stream_apply",
)

#: Workloads that run only the vertex-priority kernels: serial, raw, with
#: no member, strategy or panel-width axis.
PRIORITY_ONLY: tuple[str, ...] = ("vertex-counts", "tip", "wing")

#: Strategies the ``stream_apply`` workload may select, and the ones
#: :meth:`repro.core.stream.StreamingButterflyCounter.apply` accepts.
STREAM_STRATEGIES: tuple[str, ...] = ("incremental", "recount")

#: Counting strategies a plan may select.  The first two are the
#: unblocked family strategies (:data:`repro.core.family.STRATEGIES`);
#: ``"blocked"`` is the panel derivation (its kernel picks each panel's
#: reduction itself); ``"wedge"`` is the wedge-partitioned path —
#: contiguous pivot shards of equal wedge work reduced with the fused
#: panel kernel, usually paired with a pool; ``"priority"`` is the
#: vertex-priority kernel (:mod:`repro.core.priority`), which ranks both
#: sides together and so has no invariant — serial and raw-layout only.
COUNT_STRATEGIES: tuple[str, ...] = (
    "scratch",
    "spmv",
    "blocked",
    "wedge",
    "priority",
)

#: Executors a plan may select (same vocabulary as
#: :func:`repro.core.parallel.count_butterflies_parallel`).
EXECUTORS: tuple[str, ...] = ("serial", "shared")

#: Storage layouts a plan may select (:func:`repro.storage.make_storage`
#: builds them): the graph's own arrays, or memory-mapped column files.
LAYOUTS: tuple[str, ...] = ("raw", "mmap")


@dataclass(frozen=True)
class Plan:
    """One fully-specified execution decision.

    Produced by :func:`repro.engine.plan`; executed by
    :func:`repro.engine.execute` (or the :meth:`execute` convenience).
    The ``modeled_ops`` / ``est_seconds`` fields record the exact work
    model and the calibrated cost estimate (None where no model exists);
    ``candidates`` carries the rows the plan was chosen from so
    :func:`explain` can render them from the plan alone.
    """

    #: one of :data:`WORKLOADS`
    workload: str = "count"
    #: paper family member 1–8 (None for per-vertex/peeling workloads,
    #: where the kernel is side-addressed rather than invariant-addressed,
    #: and for the side-free ``priority`` count)
    invariant: int | None = None
    #: graph storage layout the kernels read (:data:`LAYOUTS`): raw int64
    #: arrays or mmap-backed
    layout: str = "raw"
    #: one of :data:`COUNT_STRATEGIES` for counts; "priority" for the
    #: per-vertex, tip and wing workloads
    strategy: str = "scratch"
    #: one of :data:`EXECUTORS` ("serial" for the per-vertex workloads)
    executor: str = "serial"
    #: pool size (1 for serial execution)
    workers: int = 1
    #: panel width for blocked kernels (None → the kernel's default)
    block_size: int | None = None
    #: vertex side for per-vertex / tip workloads ("left"/"right")
    side: str = "left"
    #: peeling threshold (tip/wing workloads; None for counts)
    k: int | None = None
    #: exact element-operation count from the work model
    modeled_ops: int = 0
    #: calibrated wall-clock estimate (seconds); None when no cost model
    #: covers the plan (pinned fixed-side plans, wing, hand-built plans)
    est_seconds: float | None = None
    #: human-readable one-liner: what the plan runs
    reason: str = ""
    #: the rows the planner chose from (chosen plan included, with empty
    #: ``candidates`` of their own); () for hand-built plans
    candidates: tuple["Plan", ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; expected one of {WORKLOADS}"
            )
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of {EXECUTORS}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.invariant is not None and self.invariant not in range(1, 9):
            raise ValueError(f"invariant must be 1..8, got {self.invariant}")
        if self.block_size is not None and self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if self.k is not None and self.k < 0:
            raise ValueError(f"k must be non-negative, got {self.k}")
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        if self.layout not in LAYOUTS:
            raise ValueError(
                f"unknown layout {self.layout!r}; expected one of {LAYOUTS}"
            )
        if self.workload in PRIORITY_ONLY and (
            self.strategy != "priority" or self.executor != "serial"
            or self.workers > 1
        ):
            raise ValueError(
                f"workload {self.workload!r} runs serially on strategy "
                f"'priority' (got strategy={self.strategy!r}, "
                f"executor={self.executor!r}, workers={self.workers})"
            )

    # ------------------------------------------------------------------
    @property
    def storage(self) -> str:
        """Compressed layout the traversal is pivot-major in: the member's
        ("csc" for 1–4, "csr" for 5–8), else "csr" (priority and stream)."""
        if self.invariant is None:
            return "csr"
        from repro.core.family import INVARIANTS

        return INVARIANTS[self.invariant].storage

    @property
    def label(self) -> str:
        """Compact identifier used in the explain table and trace attrs."""
        bits = []
        if self.invariant is not None:
            bits.append(f"inv{self.invariant}")
        elif self.workload not in ("count", "wing"):
            bits.append(self.side)
        bits.append(self.strategy)
        if self.strategy == "blocked" and self.block_size:
            bits.append(f"b{self.block_size}")
        if self.layout != "raw":
            bits.append(self.layout)
        if self.workers > 1:
            bits.append(f"{self.executor}x{self.workers}")
        else:
            bits.append("serial")
        return "-".join(bits)

    @property
    def est_ms(self) -> float | None:
        """Calibrated estimate in milliseconds (None when unmodeled)."""
        return None if self.est_seconds is None else self.est_seconds * 1e3

    def with_(self, **changes) -> "Plan":
        """A copy with the given fields replaced (frozen-dataclass sugar)."""
        return replace(self, **changes)

    def execute(self, graph, **kwargs):
        """Run this plan on ``graph`` — sugar for :func:`repro.engine.execute`."""
        from repro.engine.execute import execute

        return execute(self, graph, **kwargs)

    def as_dict(self) -> dict:
        """JSON-ready view (candidates omitted)."""
        return {
            "workload": self.workload,
            "invariant": self.invariant,
            "storage": self.storage,
            "layout": self.layout,
            "strategy": self.strategy,
            "executor": self.executor,
            "workers": self.workers,
            "block_size": self.block_size,
            "side": self.side,
            "k": self.k,
            "modeled_ops": self.modeled_ops,
            "est_seconds": self.est_seconds,
            "reason": self.reason,
            "label": self.label,
        }
