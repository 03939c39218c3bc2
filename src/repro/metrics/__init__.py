"""Butterfly-derived graph metrics."""

from repro._lazy import lazy_exports

_LAZY = {
    "bipartite_clustering_coefficient": "repro.metrics.clustering",
    "caterpillar_count": "repro.metrics.clustering",
    "local_clustering_left": "repro.metrics.clustering",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())

__all__ = [*_LAZY]
