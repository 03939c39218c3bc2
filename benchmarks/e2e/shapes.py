"""Workload graph shapes (stdlib only, shared by run.py and inputs.py).

The shapes are the repository's Fig. 9 stand-ins plus two extra graphs,
hard-coded here so that a change to ``repro.graphs.generators`` cannot
change a workload.
"""

#: name -> (|V1|, |V2|, |E|, gamma_left, gamma_right)
SHAPES: dict[str, tuple[int, int, int, float, float]] = {
    # the five Fig. 9 stand-ins (KONECT originals at 1/10 linear scale)
    "arxiv": (1673, 2202, 5860, 2.6, 2.6),
    "producers": (4883, 13884, 20727, 2.4, 2.8),
    "recordlabels": (16834, 1842, 23329, 2.8, 2.2),
    "occupations": (12758, 10173, 25095, 2.05, 2.05),
    "github": (5652, 12087, 44024, 2.0, 2.1),
    # ~134M butterflies; its 2.4 MB of index arrays exceed a 2 MiB L2
    "dense": (3000, 4000, 150_000, 2.2, 2.2),
    # large and sparse: KONECT parsing and the update path dominate
    "skewed": (30_000, 40_000, 120_000, 2.2, 2.2),
}

#: graphs of the count_suite workload, in the order every op counts them
SUITE = ("arxiv", "producers", "recordlabels", "occupations", "github", "dense")
