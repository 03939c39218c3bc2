"""repro — Families of Butterfly Counting Algorithms for Bipartite Graphs.

A from-scratch Python reproduction of Acosta, Low & Parikh (IPDPSW 2022):
the linear-algebra specification of butterfly (2×2 biclique) counting, the
eight FLAME-derived loop algorithms, blocked and parallel executors, and
the k-tip / k-wing peeling built on the same formulation.

Quick start::

    from repro import count_butterflies, engine, power_law_bipartite

    g = power_law_bipartite(2000, 3000, 10_000, seed=1)
    p = engine.plan(g, "count")           # the planner's rule …
    print(engine.explain(p, g))           # … and the line that fired
    print(p.execute(g))                   # Ξ_G on the priority kernel
    print(count_butterflies(g))           # the same Ξ_G, by the paper's
                                          # smaller-side member (slower)

(the expert door to a specific family member is
``count_butterflies_unblocked(g, 5)``).

Package map:

- :mod:`repro.core`      — specification, the 8-member family, blocked /
  parallel executors, per-vertex & per-edge counts, peeling.
- :mod:`repro.engine`    — the unified Plan→Execute pipeline: rule
  planner, per-machine calibration, ``explain``, single dispatch point.
- :mod:`repro.sparsela`  — self-contained CSR/CSC/COO pattern-matrix
  substrate and the vectorised wedge kernels.
- :mod:`repro.flame`     — partition views and executable loop invariants.
- :mod:`repro.graphs`    — graph container, generators, KONECT I/O, the
  synthetic Fig. 9 dataset stand-ins.
- :mod:`repro.baselines` — independent oracles (brute force, scipy,
  Wang et al.'s baselines, degree-ordered).
- :mod:`repro.metrics`   — butterfly-derived clustering metrics.
- :mod:`repro.bench`     — the harness behind the ``benchmarks/`` suite.
"""

from repro._lazy import lazy_exports

_LAZY = {
    "engine": "repro.engine",
    "ALL_INVARIANTS": "repro.core",
    "INVARIANTS": "repro.core",
    "DynamicButterflyCounter": "repro.core",
    "Invariant": "repro.core",
    "StreamingButterflyCounter": "repro.core",
    "Reference": "repro.core",
    "Side": "repro.core",
    "Traversal": "repro.core",
    "butterflies_spec": "repro.core",
    "count_butterflies": "repro.core",
    "count_butterflies_blocked": "repro.core",
    "count_butterflies_parallel": "repro.core",
    "count_butterflies_unblocked": "repro.core",
    "edge_butterfly_support": "repro.core",
    "k_tip": "repro.core",
    "k_tip_lookahead": "repro.core",
    "k_wing": "repro.core",
    "tip_numbers": "repro.core",
    "vertex_butterfly_counts": "repro.core",
    "wing_numbers": "repro.core",
    "BipartiteGraph": "repro.graphs",
    "dataset_names": "repro.graphs",
    "erdos_renyi_bipartite": "repro.graphs",
    "gnm_bipartite": "repro.graphs",
    "load_dataset": "repro.graphs",
    "load_konect": "repro.graphs",
    "planted_bicliques": "repro.graphs",
    "power_law_bipartite": "repro.graphs",
    "save_konect": "repro.graphs",
    "bipartite_clustering_coefficient": "repro.metrics",
    "caterpillar_count": "repro.metrics",
    "ButterflyExecutor": "repro.parallel",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())

__version__ = "1.0.0"

__all__ = ["__version__", *_LAZY]
