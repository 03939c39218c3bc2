"""Seeded random bipartite graph generators.

The paper evaluates on five KONECT datasets that are unavailable offline, so
the benchmark harness substitutes synthetic graphs with matched shape
(|V1| : |V2| : |E| ratios) drawn from the generators here.  The generators
are also the workload source for the property-based tests.

All generators take an integer ``seed`` (or a ``numpy.random.Generator``)
and are deterministic given it.

- :func:`erdos_renyi_bipartite` — G(m, n, p): each of the m·n possible edges
  present independently with probability p.
- :func:`gnm_bipartite` — exactly ``n_edges`` distinct edges, uniform.
- :func:`chung_lu_bipartite` — expected-degree model; with power-law weights
  this produces the heavy-tailed degree profiles of real affiliation
  networks (the KONECT graphs).
- :func:`power_law_bipartite` — convenience wrapper generating Zipf-like
  weights and delegating to Chung–Lu.
- :func:`planted_bicliques` — communities = small dense bicliques over a
  sparse background; gives controllable butterfly-dense regions for the
  peeling experiments.
"""

from __future__ import annotations

import numpy as np

from repro._types import INDEX_DTYPE
from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela import PatternCOO

__all__ = [
    "erdos_renyi_bipartite",
    "gnm_bipartite",
    "chung_lu_bipartite",
    "power_law_bipartite",
    "planted_bicliques",
]


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _check_sizes(**sizes: int) -> None:
    """Reject a negative vertex or edge count (it would build an empty graph)."""
    for name, value in sizes.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def erdos_renyi_bipartite(
    n_left: int, n_right: int, p: float, seed=0
) -> BipartiteGraph:
    """Bipartite G(m, n, p): each possible edge appears with probability p.

    Uses geometric skipping for small p so generation is O(|E|) rather than
    O(m·n), which matters for the sparsity-sweep ablation.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = _rng(seed)
    total = n_left * n_right
    if total == 0 or p == 0.0:
        return BipartiteGraph.empty(n_left, n_right)
    if p >= 1.0:
        return BipartiteGraph.complete(n_left, n_right)
    if p > 0.2:
        # dense regime: direct Bernoulli draw
        dense = rng.random((n_left, n_right)) < p
        return BipartiteGraph.from_biadjacency(dense)
    # sparse regime: skip lengths are geometric(p) over the flattened cells
    expected = total * p
    draw = int(expected + 10 * np.sqrt(expected) + 10)
    positions: list[np.ndarray] = []
    pos = -1
    while pos < total:
        gaps = rng.geometric(p, size=draw)
        cells = pos + np.cumsum(gaps)
        positions.append(cells[cells < total])
        pos = int(cells[-1])
    flat = np.concatenate(positions)
    rows = (flat // n_right).astype(INDEX_DTYPE)
    cols = (flat % n_right).astype(INDEX_DTYPE)
    return BipartiteGraph(PatternCOO(rows, cols, (n_left, n_right)).canonicalize())


def gnm_bipartite(n_left: int, n_right: int, n_edges: int, seed=0) -> BipartiteGraph:
    """Uniformly random bipartite graph with exactly ``n_edges`` edges."""
    _check_sizes(n_left=n_left, n_right=n_right)
    total = n_left * n_right
    if n_edges < 0 or n_edges > total:
        raise ValueError(f"n_edges must be in [0, {total}], got {n_edges}")
    rng = _rng(seed)
    if n_edges > total // 2:
        flat = rng.permutation(total)[:n_edges]
    else:
        # rejection-free enough for the sparse case: oversample then dedup
        chosen: np.ndarray = np.empty(0, dtype=np.int64)
        while chosen.size < n_edges:
            need = n_edges - chosen.size
            cand = rng.integers(0, total, size=2 * need + 16)
            chosen = np.unique(np.concatenate([chosen, cand]))
        flat = rng.permutation(chosen)[:n_edges]
    rows = (flat // n_right).astype(INDEX_DTYPE)
    cols = (flat % n_right).astype(INDEX_DTYPE)
    return BipartiteGraph(PatternCOO(rows, cols, (n_left, n_right)).canonicalize())


def chung_lu_bipartite(
    left_weights: np.ndarray,
    right_weights: np.ndarray,
    seed=0,
    *,
    n_edges: int | None = None,
) -> BipartiteGraph:
    """Expected-degree (Chung–Lu style) bipartite graph.

    Edges are sampled by drawing endpoint pairs with probability
    proportional to ``left_weights[u] * right_weights[v]`` and merging
    duplicates — the standard fast approximation of the Chung–Lu model.
    ``n_edges`` defaults to ``sum(left_weights)`` (≈ the target edge count
    when the weights are desired degrees).
    """
    lw = np.asarray(left_weights, dtype=np.float64)
    rw = np.asarray(right_weights, dtype=np.float64)
    if lw.ndim != 1 or rw.ndim != 1:
        raise ValueError("weights must be 1-D")
    if (lw < 0).any() or (rw < 0).any():
        raise ValueError("weights must be non-negative")
    rng = _rng(seed)
    target = int(round(lw.sum())) if n_edges is None else int(n_edges)
    if target == 0 or lw.sum() == 0 or rw.sum() == 0:
        return BipartiteGraph.empty(len(lw), len(rw))
    lp = lw / lw.sum()
    rp = rw / rw.sum()
    # sample with replacement, dedup, top-up until target reached (or the
    # support is exhausted — bounded number of rounds)
    rows = np.empty(0, dtype=INDEX_DTYPE)
    cols = np.empty(0, dtype=INDEX_DTYPE)
    for _ in range(64):
        need = target - rows.size
        if need <= 0:
            break
        draw = int(need * 1.3) + 16
        r = rng.choice(len(lp), size=draw, p=lp).astype(INDEX_DTYPE)
        c = rng.choice(len(rp), size=draw, p=rp).astype(INDEX_DTYPE)
        rows = np.concatenate([rows, r])
        cols = np.concatenate([cols, c])
        key = rows * len(rp) + cols
        _, first = np.unique(key, return_index=True)
        first.sort()
        rows, cols = rows[first], cols[first]
    if rows.size > target:
        rows, cols = rows[:target], cols[:target]
    return BipartiteGraph(
        PatternCOO(rows, cols, (len(lw), len(rw))).canonicalize()
    )


def power_law_bipartite(
    n_left: int,
    n_right: int,
    n_edges: int,
    gamma_left: float = 2.2,
    gamma_right: float = 2.2,
    seed=0,
) -> BipartiteGraph:
    """Chung–Lu graph with Zipf-like weights ``w_i ∝ (i + 1)^(−1/(γ−1))``.

    γ ≈ 2–2.5 matches the heavy-tailed degree distributions of the KONECT
    affiliation networks used in the paper's evaluation.
    """
    if gamma_left <= 1 or gamma_right <= 1:
        raise ValueError("power-law exponents must exceed 1")
    _check_sizes(n_left=n_left, n_right=n_right, n_edges=n_edges)
    ranks_l = np.arange(1, n_left + 1, dtype=np.float64)
    ranks_r = np.arange(1, n_right + 1, dtype=np.float64)
    lw = ranks_l ** (-1.0 / (gamma_left - 1.0))
    rw = ranks_r ** (-1.0 / (gamma_right - 1.0))
    rng = _rng(seed)
    # shuffle so vertex id carries no degree information (the orderings
    # module re-introduces degree order deliberately when asked)
    rng.shuffle(lw)
    rng.shuffle(rw)
    return chung_lu_bipartite(lw, rw, rng, n_edges=n_edges)


def planted_bicliques(
    n_left: int,
    n_right: int,
    n_cliques: int,
    clique_left: int,
    clique_right: int,
    background_edges: int = 0,
    seed=0,
) -> BipartiteGraph:
    """Sparse background plus ``n_cliques`` planted complete bicliques.

    Each planted K_{clique_left, clique_right} contributes
    C(clique_left, 2) · C(clique_right, 2) butterflies, giving the peeling
    experiments dense regions with known structure.  Cliques are placed on
    disjoint vertex ranges; a ValueError is raised if they do not fit.
    """
    if n_cliques * clique_left > n_left or n_cliques * clique_right > n_right:
        raise ValueError("planted bicliques do not fit in the vertex sets")
    rng = _rng(seed)
    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    for k in range(n_cliques):
        l0 = k * clique_left
        r0 = k * clique_right
        lv = np.arange(l0, l0 + clique_left, dtype=INDEX_DTYPE)
        rv = np.arange(r0, r0 + clique_right, dtype=INDEX_DTYPE)
        rows_parts.append(np.repeat(lv, clique_right))
        cols_parts.append(np.tile(rv, clique_left))
    if background_edges:
        bg = gnm_bipartite(n_left, n_right, background_edges, rng)
        rows_parts.append(bg.coo.rows)
        cols_parts.append(bg.coo.cols)
    rows = np.concatenate(rows_parts) if rows_parts else np.empty(0, dtype=INDEX_DTYPE)
    cols = np.concatenate(cols_parts) if cols_parts else np.empty(0, dtype=INDEX_DTYPE)
    return BipartiteGraph(
        PatternCOO(rows, cols, (n_left, n_right)).canonicalize()
    )
