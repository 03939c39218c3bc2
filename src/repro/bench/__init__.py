"""Benchmark harness: timers, sweep grids, table rendering, workloads."""

from repro._lazy import lazy_exports

_LAZY = {
    "Sweep": "repro.bench.harness",
    "TimedResult": "repro.bench.harness",
    "time_callable": "repro.bench.harness",
    "crossover_workloads": "repro.bench.registry",
    "fig9_workloads": "repro.bench.registry",
    "sparsity_workloads": "repro.bench.registry",
    "format_markdown_table": "repro.bench.tables",
    "format_seconds": "repro.bench.tables",
    "format_table": "repro.bench.tables",
    "CacheStats": "repro.bench.cachesim",
    "LRUCache": "repro.bench.cachesim",
    "simulate_invariant_cache": "repro.bench.cachesim",
    "RunComparison": "repro.bench.results",
    "compare_runs": "repro.bench.results",
    "load_run": "repro.bench.results",
    "save_run": "repro.bench.results",
    "sweep_from_dict": "repro.bench.results",
    "sweep_to_dict": "repro.bench.results",
    "WorkProfile": "repro.core.workinfo",
    "work_profile": "repro.core.workinfo",
    "work_table": "repro.core.workinfo",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())

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
