"""Butterfly-derived graph metrics."""

from repro._lazy import lazy_exports

_LAZY = {
    "bipartite_clustering_coefficient": "repro.metrics.clustering",
    "caterpillar_count": "repro.metrics.clustering",
    "local_clustering_left": "repro.metrics.clustering",
    "ButterflyConcentration": "repro.metrics.distributions",
    "butterfly_concentration": "repro.metrics.distributions",
    "butterfly_degree_histogram": "repro.metrics.distributions",
    "wedge_multiplicity_histogram": "repro.metrics.distributions",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())

__all__ = [
    "caterpillar_count",
    "bipartite_clustering_coefficient",
    "local_clustering_left",
    "butterfly_degree_histogram",
    "wedge_multiplicity_histogram",
    "ButterflyConcentration",
    "butterfly_concentration",
]
