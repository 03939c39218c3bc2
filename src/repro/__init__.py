"""repro — Families of Butterfly Counting Algorithms for Bipartite Graphs.

A from-scratch Python reproduction of Acosta, Low & Parikh (IPDPSW 2022):
the linear-algebra specification of butterfly (2×2 biclique) counting, the
eight FLAME-derived loop algorithms, blocked and parallel executors, and
the k-tip / k-wing peeling built on the same formulation.

Quick start::

    from repro import count_butterflies, engine, power_law_bipartite

    g = power_law_bipartite(2000, 3000, 10_000, seed=1)
    print(count_butterflies(g))           # smaller-side scratch sweep
    p = engine.plan(g, "count")           # the planner's rule …
    print(engine.explain(p, g))           # … and the line that fired
    print(p.execute(g))

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
  vertex-priority, degree-ordered, sampling estimators).
- :mod:`repro.metrics`   — butterfly-derived clustering metrics.
- :mod:`repro.bench`     — the harness behind the ``benchmarks/`` suite.
"""

from repro import engine
from repro.core import (
    ALL_INVARIANTS,
    INVARIANTS,
    DynamicButterflyCounter,
    HybridStreamCounter,
    Invariant,
    StreamingButterflyCounter,
    StreamingEstimator,
    iter_butterflies,
    Reference,
    Side,
    Traversal,
    butterflies_spec,
    count_butterflies,
    count_butterflies_blocked,
    count_butterflies_parallel,
    count_butterflies_unblocked,
    edge_butterfly_support,
    k_tip,
    k_tip_lookahead,
    k_wing,
    tip_numbers,
    vertex_butterfly_counts,
    wing_numbers,
)
from repro.graphs import (
    BipartiteGraph,
    dataset_names,
    erdos_renyi_bipartite,
    gnm_bipartite,
    load_dataset,
    load_konect,
    planted_bicliques,
    power_law_bipartite,
    save_konect,
)
from repro.metrics import bipartite_clustering_coefficient, caterpillar_count
from repro.parallel import ButterflyExecutor

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # the Plan→Execute pipeline
    "engine",
    # core counting
    "count_butterflies",
    "count_butterflies_unblocked",
    "count_butterflies_blocked",
    "count_butterflies_parallel",
    "ButterflyExecutor",
    "butterflies_spec",
    "Invariant",
    "Side",
    "Traversal",
    "Reference",
    "INVARIANTS",
    "ALL_INVARIANTS",
    # local counts and peeling
    "vertex_butterfly_counts",
    "edge_butterfly_support",
    "k_tip",
    "k_tip_lookahead",
    "k_wing",
    "tip_numbers",
    "wing_numbers",
    "DynamicButterflyCounter",
    "StreamingButterflyCounter",
    "StreamingEstimator",
    "HybridStreamCounter",
    "iter_butterflies",
    # graphs
    "BipartiteGraph",
    "erdos_renyi_bipartite",
    "gnm_bipartite",
    "power_law_bipartite",
    "planted_bicliques",
    "load_konect",
    "save_konect",
    "load_dataset",
    "dataset_names",
    # metrics
    "bipartite_clustering_coefficient",
    "caterpillar_count",
]
