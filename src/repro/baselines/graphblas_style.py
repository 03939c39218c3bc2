"""GraphBLAS-style butterfly counting.

The repro-calibration note for this paper points out that a
scipy.sparse/pygraphblas derivation is the natural executable form of the
linear-algebra specification.  This module writes the count in exactly that
idiom, on our own semiring layer (:mod:`repro.sparsela.semiring`) — no
scipy, no loops over vertices:

    B   = A plus_pair.mxm Aᵀ          # wedge matrix, B_ij = |N(i) ∩ N(j)|
    U   = triu(B)                     # strict upper triangle: distinct pairs
    C   = apply(U, x ↦ C(x, 2))       # butterflies per pair
    Ξ_G = reduce(C)

It is the fourth independent executable of the specification (dense
oracle, loop family, scipy baseline, and this), and the one closest to how
a GraphBLAS system would run the paper's formulas.
"""

from __future__ import annotations

from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela.semiring import (
    PLUS_PAIR,
    ewise_mult,
    gram,
    reduce_scalar,
    triu,
)

__all__ = ["count_butterflies_graphblas", "wedge_matrix_graphblas"]


def wedge_matrix_graphblas(graph: BipartiteGraph):
    """B = A plus_pair.mxm Aᵀ as a :class:`~repro.sparsela.semiring.ValuedCSR`."""
    return gram(graph.csr, semiring=PLUS_PAIR)


def count_butterflies_graphblas(graph: BipartiteGraph) -> int:
    """Ξ_G via the four-operation GraphBLAS pipeline."""
    b = wedge_matrix_graphblas(graph)
    upper = triu(b)
    per_pair = ewise_mult(upper, lambda x: (x * (x - 1)) // 2)
    return reduce_scalar(per_pair)
