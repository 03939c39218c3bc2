"""Matrix Market (.mtx) I/O for biadjacency matrices.

KONECT is the paper's source, but bipartite graphs in the wild very often
ship as MatrixMarket ``coordinate`` files (SuiteSparse, SNAP mirrors).
This reads/writes the ``matrix coordinate pattern general`` dialect —
pattern because the graphs are unweighted; numeric value columns are
tolerated on read and ignored.  Entries are parsed by numpy's C text
reader, like the KONECT loader in :mod:`repro.graphs.io`.
"""

from __future__ import annotations

import os

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.io import _read_id_pairs
from repro.sparsela import PatternCOO

__all__ = ["load_matrix_market", "save_matrix_market"]


def load_matrix_market(path: str | os.PathLike) -> BipartiteGraph:
    """Load a MatrixMarket coordinate file as a bipartite graph.

    Rows become V1, columns V2.  Requires the ``matrix coordinate``
    header; ``pattern``/``integer``/``real`` value fields are accepted
    (nonzero structure only is used).  Duplicate entries merge; lines after
    the declared ``nnz`` entries are not read.

    Raises ``ValueError`` for a missing or unsupported header, a malformed
    size line or entry ("malformed"), fewer entries than declared
    ("truncated"), or an entry outside the declared shape.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ValueError("missing %%MatrixMarket header")
        tokens = header.split()
        if len(tokens) < 3 or tokens[1] != "matrix" or tokens[2] != "coordinate":
            raise ValueError(f"unsupported MatrixMarket header: {header.strip()!r}")
        # skip comments
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        dims = line.split()
        if len(dims) != 3:
            raise ValueError(f"malformed size line: {line.strip()!r}")
        m, n, nnz = int(dims[0]), int(dims[1]), int(dims[2])
        if nnz < 0:
            raise ValueError(f"malformed size line: {line.strip()!r}")
        pairs = _read_id_pairs(fh, comments="%", max_rows=nnz)
    if len(pairs) < nnz:
        raise ValueError(
            f"truncated entry line {len(pairs) + 1}: expected {nnz} entries, "
            f"found {len(pairs)}"
        )
    rows, cols = pairs[:, 0] - 1, pairs[:, 1] - 1
    return BipartiteGraph(PatternCOO(rows, cols, (m, n)).canonicalize())


def save_matrix_market(graph: BipartiteGraph, path: str | os.PathLike) -> None:
    """Write the biadjacency pattern as ``matrix coordinate pattern general``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern general\n")
        fh.write("% bipartite biadjacency written by repro\n")
        fh.write(f"{graph.n_left} {graph.n_right} {graph.n_edges}\n")
        for u, v in graph.edges():
            fh.write(f"{u + 1} {v + 1}\n")
