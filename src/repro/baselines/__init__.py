"""Independent baselines and oracles for cross-checking the family."""

from repro._lazy import lazy_exports

_LAZY = {
    "count_butterflies_bruteforce": "repro.baselines.bruteforce",
    "count_butterflies_networkx": "repro.baselines.bruteforce",
    "edge_support_bruteforce": "repro.baselines.bruteforce",
    "enumerate_butterflies": "repro.baselines.bruteforce",
    "vertex_counts_bruteforce": "repro.baselines.bruteforce",
    "count_butterflies_degree_ordered": "repro.baselines.chiba_nishizeki",
    "count_butterflies_scipy": "repro.baselines.scipy_reference",
    "vertex_counts_scipy": "repro.baselines.scipy_reference",
    "wedge_matrix_scipy": "repro.baselines.scipy_reference",
    "PartitionedCountResult": "repro.baselines.wang2014",
    "count_butterflies_wang_baseline": "repro.baselines.wang2014",
    "count_butterflies_wang_partitioned": "repro.baselines.wang2014",
    "count_butterflies_wang_space_efficient": "repro.baselines.wang2014",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())

__all__ = [*_LAZY]
