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

A plain file is read once as text for the UTF-8 check, the size header
and the non-ASCII guard; numpy's C text reader (:func:`numpy.loadtxt`)
then parses it by path, in chunks.  (Handed text, ``loadtxt`` iterates it
line by line in Python, which costs about as much again.)  A ``.gz`` file
is decompressed once and its text handed to the same reader.  Every parse
failure surfaces as ``ValueError``.
"""

from __future__ import annotations

import gzip
import io
import os
import stat
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


#: suffixes numpy's reader decompresses when handed a path
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")


def _read_edge_file(path: str | os.PathLike, comments: str) -> tuple[str, np.ndarray]:
    """Decoded text of the edge file at ``path`` and its id pairs.

    The file is read once (decompressed if ``.gz``; a truncated stream is
    a ``ValueError``); its text serves the UTF-8 check
    (``UnicodeDecodeError``), the callers' header scan and the non-ASCII
    guard.  numpy then parses a plain regular file by its
    absolute path (never taken for a URL), and anything else from the
    text: it would decompress a ``.gz`` file again, and a pipe cannot be
    read twice.
    """
    name = os.fspath(path)
    with _open_text(path, "r") as fh:
        try:
            text = fh.read()
        except EOFError as exc:  # gzip stream cut short
            raise ValueError(f"{name}: {exc}") from exc
        by_path = not name.endswith(_COMPRESSED_SUFFIXES) and stat.S_ISREG(
            os.fstat(fh.fileno()).st_mode
        )
    source = os.path.abspath(name) if by_path else None
    return text, _read_id_pairs(text, comments, source=source)


def _read_id_pairs(
    text: str,
    comments: str,
    max_rows: int | None = None,
    source: str | None = None,
) -> np.ndarray:
    """First two integer columns of whitespace-separated ``text``.

    Blank lines, text after a ``comments`` character and extra columns are
    skipped; at most ``max_rows`` data rows are read.  Anything that does
    not parse as int64 — a line with one column, a fractional or
    oversized id, stray or non-ASCII text — raises ``ValueError``, so
    callers surface one typed error whatever numpy's reader tripped on.
    numpy parses ``source``, a local file holding ``text``, when given.
    """
    if not text.isascii():
        _reject_non_ascii_rows(text, comments, max_rows)
    try:
        with warnings.catch_warnings():
            # numpy warns (rather than failing) on an empty input and, in
            # older releases, when an integer column holds a float; the
            # first is an empty edge list, the second is malformed input.
            warnings.simplefilter("ignore", UserWarning)
            warnings.simplefilter("error", DeprecationWarning)
            pairs = np.loadtxt(
                io.StringIO(text) if source is None else source,
                dtype=INDEX_DTYPE,
                comments=comments,
                usecols=(0, 1),
                ndmin=2,
                max_rows=max_rows,
                encoding="utf-8",
            )
    except (ValueError, OverflowError, DeprecationWarning) as exc:
        raise ValueError(f"malformed edge line: {exc}") from exc
    return pairs.reshape(-1, 2)  # an empty input parses as (0,) on some numpy


def _reject_non_ascii_rows(text: str, comments: str, max_rows: int | None) -> None:
    """``ValueError`` for the first data row holding non-ASCII text.

    Ids are ASCII digits, so such a row is malformed anyway; it must not
    reach numpy, whose integer parser can crash the interpreter on some
    characters outside the Basic Multilingual Plane (numpy 2.4,
    ``"1\\U000e0000"``).  Comments and rows past ``max_rows`` may hold
    any text.
    """
    rows = 0
    for line in text.split("\n"):
        data = line.split(comments, 1)[0]
        if not data.strip():
            continue
        if max_rows is not None and rows >= max_rows:
            return
        if not data.isascii():
            raise ValueError(f"malformed edge line {rows + 1}: non-ASCII text")
        rows += 1


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


def _first_id_below_1(text: str, pairs: np.ndarray) -> str:
    """``"line L has id X"`` for the first id below 1, L the file's 1-based line.

    Run on the error path only: data row r is the r-th line that is not
    blank once its ``%`` comment is cut, as the reader counts them.
    """
    row = int(np.flatnonzero((pairs < 1).any(axis=1))[0])
    ident = int(pairs[row, 0] if pairs[row, 0] < 1 else pairs[row, 1])
    lines = enumerate(text.split("\n"), 1)
    data = [i for i, line in lines if line.split("%", 1)[0].strip()]
    return f"line {data[row]} has id {ident}"


def load_konect(path: str | os.PathLike) -> BipartiteGraph:
    """Load a KONECT-style bipartite edge list (1-based ids, % comments).

    A ``% <edges> <n_left> <n_right>`` size header is honoured when present;
    otherwise sizes are inferred from the maximum ids.  Duplicate edges are
    merged; weights/timestamps in trailing columns are ignored (the paper's
    algorithms operate on the unweighted pattern).

    Raises ``ValueError`` for a line that is not two integer ids
    ("malformed"), a 0 or negative id ("1-based; line L has id X"), or an
    id beyond the size header; ``UnicodeDecodeError`` for a file that is
    not UTF-8 text.
    """
    text, pairs = _read_edge_file(path, comments="%")
    n_left, n_right = _konect_size_header(text)
    if pairs.size and pairs.min() < 1:
        raise ValueError(f"KONECT files are 1-based; {_first_id_below_1(text, pairs)}")
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
    pairs = _read_edge_file(path, comments="#")[1]
    if n_left is None:
        return BipartiteGraph(pairs)
    return BipartiteGraph(pairs, n_left=n_left, n_right=n_right)


def save_edge_list(graph: BipartiteGraph, path: str | os.PathLike) -> None:
    """Write a plain 0-based edge list with a size comment header."""
    with _open_text(path, "w") as fh:
        fh.write(f"# bipartite {graph.n_left} {graph.n_right} {graph.n_edges}\n")
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")
