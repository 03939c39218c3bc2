"""Bipartite graph substrate: container, generators, I/O, datasets, stats."""

from repro._lazy import lazy_exports

_LAZY = {
    "BipartiteGraph": "repro.graphs.bipartite",
    "chung_lu_bipartite": "repro.graphs.generators",
    "erdos_renyi_bipartite": "repro.graphs.generators",
    "gnm_bipartite": "repro.graphs.generators",
    "planted_bicliques": "repro.graphs.generators",
    "power_law_bipartite": "repro.graphs.generators",
    "load_edge_list": "repro.graphs.io",
    "load_konect": "repro.graphs.io",
    "save_edge_list": "repro.graphs.io",
    "save_konect": "repro.graphs.io",
    "DATASETS": "repro.graphs.datasets",
    "DatasetSpec": "repro.graphs.datasets",
    "dataset_names": "repro.graphs.datasets",
    "load_dataset": "repro.graphs.datasets",
    "paper_stats": "repro.graphs.datasets",
    "degree_order": "repro.graphs.ordering",
    "order_by_degree": "repro.graphs.ordering",
    "order_side_by_degree": "repro.graphs.ordering",
    "shuffle_labels": "repro.graphs.ordering",
    "ReducedGraph": "repro.graphs.cleanup",
    "drop_isolated": "repro.graphs.cleanup",
    "two_two_core": "repro.graphs.cleanup",
    "GraphStats": "repro.graphs.stats",
    "graph_stats": "repro.graphs.stats",
    "wedge_count_left": "repro.graphs.stats",
    "wedge_count_right": "repro.graphs.stats",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())

__all__ = [*_LAZY]
