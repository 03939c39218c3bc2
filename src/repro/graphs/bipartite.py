"""The :class:`BipartiteGraph` container.

A bipartite graph G = (V1, V2, E) is fully described by its biadjacency
matrix A (|V1| × |V2|), per Section II of the paper:

    A_G = [[0, A], [Aᵀ, 0]]

The container keeps both compressed views of A — CSR (row/V1-major, used by
invariants 5–8) and CSC (column/V2-major, used by invariants 1–4) — built
lazily and cached, so every algorithm in the family gets its preferred
storage without repeated conversions.
"""

from __future__ import annotations

import numpy as np

from repro._types import INDEX_DTYPE
from repro.sparsela import PatternCOO, PatternCSC, PatternCSR

__all__ = ["BipartiteGraph"]


class BipartiteGraph:
    """An immutable, simple, undirected bipartite graph.

    Vertices of the two sides are identified by integer ids
    ``0..n_left-1`` (side V1, the *rows* of the biadjacency matrix) and
    ``0..n_right-1`` (side V2, the *columns*).  Parallel edges are merged at
    construction; self-loops cannot exist by construction (the sides are
    disjoint).

    Parameters
    ----------
    edges:
        Iterable of ``(u, v)`` pairs with ``u`` on the left side and ``v``
        on the right side, or a 2-column numpy array.
    n_left, n_right:
        Side sizes.  Inferred from the edges when omitted (isolated
        trailing vertices then do not exist).
    """

    __slots__ = ("_coo", "_csr", "_csc")

    def __init__(
        self,
        edges=(),
        n_left: int | None = None,
        n_right: int | None = None,
    ) -> None:
        if isinstance(edges, PatternCOO):
            coo = edges.canonicalize()
            if n_left is not None or n_right is not None:
                raise ValueError("shape is fixed by the PatternCOO input")
        else:
            shape = None
            if n_left is not None or n_right is not None:
                if n_left is None or n_right is None:
                    raise ValueError("give both n_left and n_right or neither")
                shape = (int(n_left), int(n_right))
            coo = PatternCOO.from_pairs(edges, shape)
        self._coo = coo
        self._csr: PatternCSR | None = None
        self._csc: PatternCSC | None = None

    # ------------------------------------------------------------------
    # alternative constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_biadjacency(cls, dense: np.ndarray) -> "BipartiteGraph":
        """Build from a dense 0/1 biadjacency matrix."""
        return cls(PatternCOO.from_dense(dense))

    @classmethod
    def from_csr(cls, csr: PatternCSR) -> "BipartiteGraph":
        """Build from an existing CSR pattern (kept, CSC derived lazily)."""
        g = cls(csr.to_coo())
        g._csr = csr
        return g

    @classmethod
    def from_csc(cls, csc: PatternCSC) -> "BipartiteGraph":
        """Build from an existing CSC pattern (kept, CSR derived lazily)."""
        g = cls(csc.to_coo())
        g._csc = csc
        return g

    @classmethod
    def empty(cls, n_left: int, n_right: int) -> "BipartiteGraph":
        """Graph with the given side sizes and no edges."""
        return cls((), n_left=n_left, n_right=n_right)

    @classmethod
    def complete(cls, n_left: int, n_right: int) -> "BipartiteGraph":
        """The complete bipartite graph K_{n_left, n_right}."""
        rows = np.repeat(np.arange(n_left, dtype=INDEX_DTYPE), n_right)
        cols = np.tile(np.arange(n_right, dtype=INDEX_DTYPE), n_left)
        return cls(PatternCOO(rows, cols, (n_left, n_right)))

    # ------------------------------------------------------------------
    # dimensions
    # ------------------------------------------------------------------
    @property
    def n_left(self) -> int:
        """|V1| — size of the left (row) side."""
        return self._coo.shape[0]

    @property
    def n_right(self) -> int:
        """|V2| — size of the right (column) side."""
        return self._coo.shape[1]

    @property
    def n_edges(self) -> int:
        """|E| — number of (distinct) edges."""
        return self._coo.nnz

    @property
    def shape(self) -> tuple[int, int]:
        """Biadjacency shape ``(|V1|, |V2|)``."""
        return self._coo.shape

    # ------------------------------------------------------------------
    # matrix views
    # ------------------------------------------------------------------
    @property
    def coo(self) -> PatternCOO:
        """Canonical COO view of the biadjacency matrix."""
        return self._coo

    @property
    def csr(self) -> PatternCSR:
        """CSR view (left-vertex adjacency lists); cached."""
        if self._csr is None:
            self._csr = PatternCSR.from_coo(self._coo)
        return self._csr

    @property
    def csc(self) -> PatternCSC:
        """CSC view (right-vertex adjacency lists); cached."""
        if self._csc is None:
            self._csc = PatternCSC.from_coo(self._coo)
        return self._csc

    def biadjacency_dense(self, dtype=np.int64) -> np.ndarray:
        """Dense biadjacency matrix A (small graphs / tests only)."""
        return self._coo.to_dense(dtype)

    def adjacency_dense(self, dtype=np.int64) -> np.ndarray:
        """Dense full adjacency A_G = [[0, A], [Aᵀ, 0]] of the union graph."""
        a = self.biadjacency_dense(dtype)
        m, n = a.shape
        out = np.zeros((m + n, m + n), dtype=dtype)
        out[:m, m:] = a
        out[m:, :m] = a.T
        return out

    # ------------------------------------------------------------------
    # neighbourhoods and degrees
    # ------------------------------------------------------------------
    def neighbors_left(self, u: int) -> np.ndarray:
        """Sorted right-side neighbours of left vertex ``u``."""
        return self.csr.row(u)

    def neighbors_right(self, v: int) -> np.ndarray:
        """Sorted left-side neighbours of right vertex ``v``."""
        return self.csc.col(v)

    def degrees_left(self) -> np.ndarray:
        """Degrees of the left vertices."""
        return self.csr.row_degrees()

    def degrees_right(self) -> np.ndarray:
        """Degrees of the right vertices."""
        return self.csc.col_degrees()

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def swap_sides(self) -> "BipartiteGraph":
        """The same graph with V1 and V2 exchanged (biadjacency transposed).

        Butterfly counts are invariant under this; the *cost profile* of the
        invariant families is not — which is exactly the paper's Section V
        finding about partition sizes.
        """
        return BipartiteGraph(self._coo.transpose())

    def relabel(
        self,
        left_perm: np.ndarray | None = None,
        right_perm: np.ndarray | None = None,
    ) -> "BipartiteGraph":
        """Relabel vertices: new id of left vertex ``u`` is ``left_perm[u]``.

        Either permutation may be omitted (identity).  Used to test
        label-invariance and by the degree orderings in
        :mod:`repro.graphs.ordering`.
        """
        rows, cols = self._coo.rows, self._coo.cols
        if left_perm is not None:
            rows = _permutation(left_perm, self.n_left, "left_perm")[rows]
        if right_perm is not None:
            cols = _permutation(right_perm, self.n_right, "right_perm")[cols]
        return BipartiteGraph(PatternCOO(rows, cols, self.shape))

    def subgraph_from_mask(
        self, left_keep: np.ndarray, right_keep: np.ndarray
    ) -> "BipartiteGraph":
        """Induced subgraph keeping masked vertices *without renumbering*.

        Vertices outside the masks simply lose all their edges; ids are
        preserved.  This matches the peeling formulation's Hadamard-mask
        step ``A₁ = A₀ ∘ M`` (eqs. 21–22), where removed vertices remain as
        zero rows/columns.
        """
        left_keep = np.asarray(left_keep, dtype=bool)
        right_keep = np.asarray(right_keep, dtype=bool)
        if left_keep.shape != (self.n_left,) or right_keep.shape != (self.n_right,):
            raise ValueError("masks must cover both vertex sides")
        sel = left_keep[self._coo.rows] & right_keep[self._coo.cols]
        return BipartiteGraph(
            PatternCOO(self._coo.rows[sel], self._coo.cols[sel], self.shape)
        )

    def edges(self) -> np.ndarray:
        """All edges as an ``(e, 2)`` array sorted row-major."""
        return np.stack([self._coo.rows, self._coo.cols], axis=1)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return self._coo == other._coo

    def __hash__(self) -> None:  # pragma: no cover
        raise TypeError("BipartiteGraph is not hashable")

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(|V1|={self.n_left}, |V2|={self.n_right}, "
            f"|E|={self.n_edges})"
        )


def _permutation(perm, n: int, name: str) -> np.ndarray:
    """``perm`` as an int64 array; ``ValueError`` unless it permutes ``0..n-1``."""
    perm = np.asarray(perm, dtype=INDEX_DTYPE)
    if perm.shape != (n,) or not np.array_equal(
        np.sort(perm), np.arange(n, dtype=INDEX_DTYPE)
    ):
        raise ValueError(f"{name} must be a permutation of 0..{n - 1}")
    return perm
