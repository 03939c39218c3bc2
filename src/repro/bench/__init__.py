"""Benchmark harness: timers, sweep grids, table rendering, workloads."""

from repro.bench.harness import Sweep, TimedResult, time_callable
from repro.bench.registry import (
    crossover_workloads,
    fig9_workloads,
    sparsity_workloads,
)
from repro.bench.tables import format_markdown_table, format_seconds, format_table
from repro.bench.cachesim import CacheStats, LRUCache, simulate_invariant_cache
from repro.bench.results import (
    RunComparison,
    compare_runs,
    load_run,
    save_run,
    sweep_from_dict,
    sweep_to_dict,
)
from repro.core.workinfo import WorkProfile, work_profile, work_table

__all__ = [
    "Sweep",
    "TimedResult",
    "time_callable",
    "fig9_workloads",
    "crossover_workloads",
    "sparsity_workloads",
    "format_table",
    "format_markdown_table",
    "format_seconds",
    "WorkProfile",
    "work_profile",
    "work_table",
    "LRUCache",
    "CacheStats",
    "simulate_invariant_cache",
    "sweep_to_dict",
    "sweep_from_dict",
    "save_run",
    "load_run",
    "RunComparison",
    "compare_runs",
]
