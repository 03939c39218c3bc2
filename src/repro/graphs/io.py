"""Reading and writing bipartite graphs in KONECT-style edge-list format.

The paper's datasets come from the KONECT collection [5], whose bipartite
graphs are distributed as whitespace-separated edge lists with ``%``-prefixed
comment/metadata lines and 1-based vertex ids:

    % bip unweighted
    % 58595 16726 22015
    1 1
    1 2
    ...

This module reads and writes that dialect (plus plain 0-based TSV), so the
CLI and examples can operate on real KONECT downloads when they are
available, and on files produced by :func:`save_konect` otherwise.

Parsing goes through numpy's C text reader (:func:`numpy.loadtxt`), not a
per-line Python loop; every parse failure surfaces as ``ValueError``.
"""

from __future__ import annotations

import gzip
import io
import os
import warnings

import numpy as np

from repro._types import INDEX_DTYPE
from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela import PatternCOO

__all__ = ["load_konect", "save_konect", "load_edge_list", "save_edge_list"]


def _open_text(path: str | os.PathLike, mode: str):
    """Open a text file, transparently handling ``.gz`` paths.

    KONECT distributes its edge lists gzip-compressed; sniffing by
    extension keeps both loaders signature-compatible.
    """
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _read_id_pairs(fh, comments: str, max_rows: int | None = None) -> np.ndarray:
    """First two integer columns of a whitespace-separated text stream.

    Blank lines, text after a ``comments`` character and extra columns are
    skipped; at most ``max_rows`` data rows are read.  Anything that does
    not parse as int64 — a line with one column, a fractional or
    oversized id, stray text — raises ``ValueError``, so callers surface
    one typed error whatever numpy's reader tripped on.
    """
    try:
        with warnings.catch_warnings():
            # numpy warns (rather than failing) on an empty input and, in
            # older releases, when an integer column holds a float; the
            # first is an empty edge list, the second is malformed input.
            warnings.simplefilter("ignore", UserWarning)
            warnings.simplefilter("error", DeprecationWarning)
            pairs = np.loadtxt(
                fh,
                dtype=INDEX_DTYPE,
                comments=comments,
                usecols=(0, 1),
                ndmin=2,
                max_rows=max_rows,
            )
    except (ValueError, OverflowError, DeprecationWarning) as exc:
        raise ValueError(f"malformed edge line: {exc}") from exc
    return pairs.reshape(-1, 2)  # an empty input parses as (0,) on some numpy


def _konect_size_header(text: str) -> tuple[int | None, int | None]:
    """``(n_left, n_right)`` from the last ``% nnz m n`` comment line, if any.

    Only ``%`` characters are visited, so a file with a two-line header
    costs two iterations however many edge lines follow.
    """
    n_left = n_right = None
    at = text.find("%")
    while at != -1:
        end = text.find("\n", at)
        end = len(text) if end == -1 else end
        if not text[text.rfind("\n", 0, at) + 1 : at].strip():
            body = text[at + 1 : end].split()
            # the KONECT size line is "% nnz m n" — all integers
            if len(body) == 3 and all(tok.isdigit() for tok in body):
                n_left, n_right = int(body[1]), int(body[2])
        at = text.find("%", end)
    return n_left, n_right


def load_konect(path: str | os.PathLike) -> BipartiteGraph:
    """Load a KONECT-style bipartite edge list (1-based ids, % comments).

    A ``% <edges> <n_left> <n_right>`` size header is honoured when present;
    otherwise sizes are inferred from the maximum ids.  Duplicate edges are
    merged; weights/timestamps in trailing columns are ignored (the paper's
    algorithms operate on the unweighted pattern).

    Raises ``ValueError`` for a line that is not two integer ids
    ("malformed"), a 0 or negative id ("1-based"), or an id beyond the
    size header; ``UnicodeDecodeError`` for a file that is not UTF-8 text.
    """
    with _open_text(path, "r") as fh:
        text = fh.read()
    n_left, n_right = _konect_size_header(text)
    pairs = _read_id_pairs(io.StringIO(text), comments="%")
    if pairs.size and pairs.min() < 1:
        raise ValueError("KONECT files are 1-based; found a 0 id")
    rows, cols = pairs[:, 0] - 1, pairs[:, 1] - 1
    if n_left is None:
        n_left = int(rows.max()) + 1 if rows.size else 0
        n_right = int(cols.max()) + 1 if cols.size else 0
    return BipartiteGraph(
        PatternCOO(rows, cols, (n_left, n_right)).canonicalize()
    )


def save_konect(graph: BipartiteGraph, path: str | os.PathLike) -> None:
    """Write a graph in the KONECT dialect accepted by :func:`load_konect`."""
    with _open_text(path, "w") as fh:
        fh.write("% bip unweighted\n")
        fh.write(f"% {graph.n_edges} {graph.n_left} {graph.n_right}\n")
        for u, v in graph.edges():
            fh.write(f"{u + 1} {v + 1}\n")


def load_edge_list(
    path: str | os.PathLike,
    n_left: int | None = None,
    n_right: int | None = None,
) -> BipartiteGraph:
    """Load a plain 0-based whitespace-separated edge list (``#`` comments).

    Sizes are inferred from the maximum ids unless ``n_left`` is given (then
    ``n_right`` must be too).  Raises ``ValueError`` for a line that is not
    two integer ids ("malformed") or an id outside the sizes; extra columns
    are ignored.
    """
    with _open_text(path, "r") as fh:
        pairs = _read_id_pairs(fh, comments="#")
    if n_left is None:
        return BipartiteGraph(pairs)
    return BipartiteGraph(pairs, n_left=n_left, n_right=n_right)


def save_edge_list(graph: BipartiteGraph, path: str | os.PathLike) -> None:
    """Write a plain 0-based edge list with a size comment header."""
    with _open_text(path, "w") as fh:
        fh.write(f"# bipartite {graph.n_left} {graph.n_right} {graph.n_edges}\n")
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")
