"""Incremental (dynamic) butterfly counting.

Streaming and evolving bipartite graphs need the count maintained under
edge insertions and deletions without recounting — the dynamic setting the
butterfly-counting literature (e.g. the sliding-window variants of the
paper's ref [10]) motivates.  The delta has a closed form in the paper's
own vocabulary: inserting edge (u, v) creates exactly

    Δ = Σ_{w ∈ N(v)\\{u}} ( |N(u) ∩ N(w)| − [v ∈ N(w)] )

new butterflies — for every other endpoint w of v, each *pre-existing*
wedge between u and w (not through v) closes one new butterfly — and this
is precisely the edge support (eq. 23) of (u, v) evaluated in the graph
*after* insertion.  Deletion is symmetric: the count drops by the edge's
support *before* removal.

:class:`DynamicButterflyCounter` maintains the count, per-vertex counts on
both sides, and adjacency under arbitrary interleaved insertions and
deletions, in O(wedges at the touched edge) per update.  Tests cross-check
every state against full recounts.

For batch workloads prefer
:class:`~repro.core.stream.counter.StreamingButterflyCounter`, which
applies whole insert/delete batches with vectorised wedge expansions and
is what the engine's ``stream_apply`` workload plans over; this per-edge
counter remains the simple reference implementation (and the baseline the
streaming bench section measures against).
"""

from __future__ import annotations

from repro._types import COUNT_DTYPE
from repro.core.stream.counter import _vertex_id
from repro.graphs.bipartite import BipartiteGraph

__all__ = ["DynamicButterflyCounter"]


class DynamicButterflyCounter:
    """Butterfly count maintained under edge insertions and deletions.

    Parameters
    ----------
    graph:
        Initial graph (may be empty: ``BipartiteGraph.empty(m, n)``).
        Vertex sets are fixed at construction; edges are dynamic.

    Attributes
    ----------
    count:
        The current Ξ_G (always exact).
    """

    def __init__(self, graph: BipartiteGraph) -> None:
        self.n_left = graph.n_left
        self.n_right = graph.n_right
        self._adj_left: list[set[int]] = [
            set(map(int, graph.neighbors_left(u))) for u in range(graph.n_left)
        ]
        self._adj_right: list[set[int]] = [
            set(map(int, graph.neighbors_right(v))) for v in range(graph.n_right)
        ]
        from repro.core.priority import vertex_butterfly_counts_priority

        # one ranked pass for both sides; Σ per_left = 2Ξ
        per_left, per_right = vertex_butterfly_counts_priority(graph)
        self.count: int = int(per_left.sum(dtype=COUNT_DTYPE)) // 2
        self._per_left = per_left.tolist()
        self._per_right = per_right.tolist()
        self._n_edges: int = graph.n_edges

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        """Current number of edges — O(1) (maintained, not recomputed)."""
        return self._n_edges

    def has_edge(self, u: int, v: int) -> bool:
        """True when edge (u, v) is present."""
        u, v = self._check_ids(u, v)
        return v in self._adj_left[u]

    def vertex_count(self, vertex: int, side: str = "left") -> int:
        """Current number of butterflies containing ``vertex``.

        ``IndexError`` when ``vertex`` is outside ``[0, n)`` of ``side``
        (no negative indexing from the end).
        """
        if side == "left":
            return self._per_left[_vertex_id(vertex, self.n_left, side)]
        if side == "right":
            return self._per_right[_vertex_id(vertex, self.n_right, side)]
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def to_graph(self) -> BipartiteGraph:
        """Materialise the current edge set as an immutable graph."""
        edges = [
            (u, v) for u in range(self.n_left) for v in sorted(self._adj_left[u])
        ]
        return BipartiteGraph(edges, n_left=self.n_left, n_right=self.n_right)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def _check_ids(self, u, v) -> tuple[int, int]:
        return (
            _vertex_id(u, self.n_left, "left"),
            _vertex_id(v, self.n_right, "right"),
        )

    def _delta_butterflies(self, u: int, v: int):
        """Butterflies containing edge (u, v) in the *current* adjacency.

        Yields (w, y) pairs: the opposite corner vertices, with the edge
        (u, v) assumed present conceptually (its own membership in the
        adjacency does not matter since w ≠ u and y ≠ v are demanded).
        """
        nu = self._adj_left[u]
        for w in self._adj_right[v]:
            if w == u:
                continue
            for y in nu & self._adj_left[w]:
                if y != v:
                    yield w, y

    def add_edge(self, u: int, v: int) -> int:
        """Insert edge (u, v); returns the number of butterflies created.

        Raises ``ValueError`` if the edge already exists (the graph is
        simple).
        """
        u, v = self._check_ids(u, v)
        if v in self._adj_left[u]:
            raise ValueError(f"edge ({u}, {v}) already present")
        created = 0
        for w, y in self._delta_butterflies(u, v):
            created += 1
            self._per_left[w] += 1
            self._per_right[y] += 1
        self._per_left[u] += created
        self._per_right[v] += created
        self.count += created
        self._adj_left[u].add(v)
        self._adj_right[v].add(u)
        self._n_edges += 1
        return created

    def remove_edge(self, u: int, v: int) -> int:
        """Delete edge (u, v); returns the number of butterflies destroyed.

        Raises ``ValueError`` if the edge is absent.
        """
        u, v = self._check_ids(u, v)
        if v not in self._adj_left[u]:
            raise ValueError(f"edge ({u}, {v}) not present")
        self._adj_left[u].discard(v)
        self._adj_right[v].discard(u)
        self._n_edges -= 1
        destroyed = 0
        for w, y in self._delta_butterflies(u, v):
            destroyed += 1
            self._per_left[w] -= 1
            self._per_right[y] -= 1
        self._per_left[u] -= destroyed
        self._per_right[v] -= destroyed
        self.count -= destroyed
        return destroyed

    def add_edges(self, edges) -> int:
        """Insert a batch of edges (ignoring ones already present);
        returns total butterflies created."""
        total = 0
        for u, v in edges:
            if not self.has_edge(u, v):
                total += self.add_edge(u, v)
        return total

    def remove_edges(self, edges) -> int:
        """Delete a batch of edges (ignoring absent ones); returns total
        butterflies destroyed."""
        total = 0
        for u, v in edges:
            if self.has_edge(u, v):
                total += self.remove_edge(u, v)
        return total

    def __repr__(self) -> str:
        return (
            f"DynamicButterflyCounter(|V1|={self.n_left}, |V2|={self.n_right}, "
            f"|E|={self.n_edges}, butterflies={self.count})"
        )
