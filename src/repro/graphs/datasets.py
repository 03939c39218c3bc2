"""Synthetic stand-ins for the paper's evaluation datasets (Fig. 9).

The paper benchmarks on five KONECT bipartite graphs.  KONECT is not
reachable offline, so each dataset is replaced by a seeded synthetic graph
whose *shape* — the |V1| : |V2| ratio and edge sparsity that Section V
identifies as the performance-determining properties — matches the original
at 1/10 linear scale:

=================  ========  ========  ========  =============================
KONECT original      |V1|      |V2|      |E|     stand-in (×1/10 vertices/edges)
=================  ========  ========  ========  =============================
arXiv cond-mat      16,726    22,015    58,595   1,673 × 2,202, ~5,860 edges
Producers           48,833   138,844   207,268   4,883 × 13,884, ~20,727 edges
Record Labels      168,337    18,421   233,286   16,834 × 1,842, ~23,329 edges
Occupations        127,577   101,730   250,945   12,758 × 10,173, ~25,095 edges
GitHub              56,519   120,867   440,237   5,652 × 12,087, ~44,024 edges
=================  ========  ========  ========  =============================

Heavier-tailed degree weights are used for the datasets whose originals are
butterfly-dense relative to their edge count (Occupations, GitHub), so the
stand-ins also reproduce the paper's density ordering qualitatively.

Use :func:`load_dataset` / :func:`dataset_names`; graphs are cached per
process because generation is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.graphs.bipartite import BipartiteGraph

__all__ = ["DatasetSpec", "DATASETS", "dataset_names", "load_dataset", "paper_stats"]


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one synthetic stand-in dataset."""

    name: str
    #: KONECT dataset it substitutes for (Fig. 9 row)
    paper_name: str
    n_left: int
    n_right: int
    n_edges: int
    gamma_left: float
    gamma_right: float
    seed: int
    #: paper-reported statistics of the original, for EXPERIMENTS.md tables
    paper_n_left: int = 0
    paper_n_right: int = 0
    paper_n_edges: int = 0
    paper_butterflies: int = 0

    def generate(self) -> BipartiteGraph:
        """Materialise the graph (deterministic)."""
        # imported here so the table (and ``dataset_names``, which the CLI
        # parser calls on every command) costs no numpy import
        from repro.graphs.generators import power_law_bipartite

        return power_law_bipartite(
            self.n_left,
            self.n_right,
            self.n_edges,
            gamma_left=self.gamma_left,
            gamma_right=self.gamma_right,
            seed=self.seed,
        )


#: The five Fig. 9 stand-ins, keyed by short name.
DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        DatasetSpec(
            name="arxiv",
            paper_name="arXiv cond-mat",
            n_left=1673,
            n_right=2202,
            n_edges=5860,
            gamma_left=2.6,
            gamma_right=2.6,
            seed=101,
            paper_n_left=16726,
            paper_n_right=22015,
            paper_n_edges=58595,
            paper_butterflies=70549,
        ),
        DatasetSpec(
            name="producers",
            paper_name="Producers",
            n_left=4883,
            n_right=13884,
            n_edges=20727,
            gamma_left=2.4,
            gamma_right=2.8,
            seed=102,
            paper_n_left=48833,
            paper_n_right=138844,
            paper_n_edges=207268,
            paper_butterflies=266983,
        ),
        DatasetSpec(
            name="recordlabels",
            paper_name="Record Labels",
            n_left=16834,
            n_right=1842,
            n_edges=23329,
            gamma_left=2.8,
            gamma_right=2.2,
            seed=103,
            paper_n_left=168337,
            paper_n_right=18421,
            paper_n_edges=233286,
            paper_butterflies=1086886,
        ),
        DatasetSpec(
            name="occupations",
            paper_name="Occupations",
            n_left=12758,
            n_right=10173,
            n_edges=25095,
            gamma_left=2.05,
            gamma_right=2.05,
            seed=104,
            paper_n_left=127577,
            paper_n_right=101730,
            paper_n_edges=250945,
            paper_butterflies=24509245,
        ),
        DatasetSpec(
            name="github",
            paper_name="GitHub",
            n_left=5652,
            n_right=12087,
            n_edges=44024,
            gamma_left=2.0,
            gamma_right=2.1,
            seed=105,
            paper_n_left=56519,
            paper_n_right=120867,
            paper_n_edges=440237,
            paper_butterflies=50894505,
        ),
    ]
}


def dataset_names() -> list[str]:
    """Names of the Fig. 9 stand-ins, in the paper's row order."""
    return list(DATASETS)


@lru_cache(maxsize=None)
def load_dataset(name: str) -> BipartiteGraph:
    """Generate (once per process) and return the named stand-in graph."""
    try:
        spec = DATASETS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {', '.join(DATASETS)}"
        ) from None
    return spec.generate()


def paper_stats(name: str) -> dict[str, int]:
    """The original KONECT statistics reported in Fig. 9 for ``name``."""
    spec = DATASETS[name]
    return {
        "n_left": spec.paper_n_left,
        "n_right": spec.paper_n_right,
        "n_edges": spec.paper_n_edges,
        "butterflies": spec.paper_butterflies,
    }
