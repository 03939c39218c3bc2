"""Robustness fuzz of the three graph loaders.

Random text fed to :func:`load_konect`, :func:`load_edge_list` and
:func:`load_matrix_market` may be rejected, but only with ``ValueError``
(``UnicodeDecodeError``, itself a ``ValueError``, on non-UTF-8 bytes).
Every ``save_*`` → ``load_*`` round trip is exact, and the KONECT dialect
details — size header, mid-file comments, extra columns — keep working.
"""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import (
    BipartiteGraph,
    load_edge_list,
    load_konect,
    load_matrix_market,
    save_edge_list,
    save_konect,
    save_matrix_market,
)

SETTINGS = dict(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["%", "#", "%%MatrixMarket", "matrix", "coordinate", "pattern",
                     "1.5", "2.0", "-0", "+3", "1e3", "nan", "inf", "x", "", "\t"]),
    st.text(max_size=4),
)
_LINES = st.lists(
    st.lists(_TOKENS, max_size=5).map(" ".join), max_size=12
).map("\n".join)
_MTX_HEADERS = st.sampled_from([
    "",
    "%%MatrixMarket matrix coordinate pattern general\n",
    "%%MatrixMarket matrix coordinate real general\n% c\n",
    "%%MatrixMarket matrix array real general\n",
])


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("loader_fuzz")


def _load(loader, path):
    """Call ``loader``; only a ``ValueError`` may escape."""
    try:
        loader(path)
    except ValueError:
        pass


@given(body=_LINES, header=_MTX_HEADERS)
@settings(**SETTINGS)
def test_random_text_raises_only_value_error(scratch, body, header):
    for name, loader, text in (
        ("g.konect", load_konect, body),
        ("g.edges", load_edge_list, body),
        ("g.mtx", load_matrix_market, header + body),
    ):
        path = scratch / name
        path.write_text(text, encoding="utf-8")
        _load(loader, path)


@given(blob=st.binary(max_size=64))
@settings(**SETTINGS)
def test_random_bytes_raise_only_value_error(scratch, blob):
    for name, loader in (("b.konect", load_konect), ("b.edges", load_edge_list),
                         ("b.mtx", load_matrix_market)):
        path = scratch / name
        path.write_bytes(blob)
        _load(loader, path)


@st.composite
def graphs(draw):
    m = draw(st.integers(0, 25))
    n = draw(st.integers(0, 25))
    if m == 0 or n == 0:
        return BipartiteGraph.empty(m, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = rng.random((m, n)) < draw(st.floats(0.0, 1.0))
    return BipartiteGraph.from_biadjacency(dense.astype(int))


@given(g=graphs(), gz=st.booleans())
@settings(**SETTINGS)
def test_save_load_roundtrips_are_exact(scratch, g, gz):
    suffix = ".gz" if gz else ""
    konect = scratch / f"r.konect{suffix}"
    save_konect(g, konect)
    loaded = load_konect(konect)
    assert loaded == g and loaded.shape == g.shape

    edges = scratch / f"r.edges{suffix}"
    save_edge_list(g, edges)
    assert load_edge_list(edges, n_left=g.n_left, n_right=g.n_right) == g
    assert load_edge_list(edges).edges().tolist() == g.edges().tolist()

    mtx = scratch / "r.mtx"
    save_matrix_market(g, mtx)
    loaded = load_matrix_market(mtx)
    assert loaded == g and loaded.shape == g.shape


@given(g=graphs(), shrink=st.sampled_from(["left", "right"]))
@settings(**SETTINGS)
def test_size_header_smaller_than_ids_rejected(scratch, g, shrink):
    if g.n_edges == 0:
        return
    u, v = g.edges().max(axis=0)
    m, n = (u, g.n_right) if shrink == "left" else (g.n_left, v)
    body = "".join(f"{a + 1} {b + 1}\n" for a, b in g.edges().tolist())
    konect = scratch / "small.konect"
    konect.write_text(f"% bip unweighted\n% {g.n_edges} {m} {n}\n{body}")
    with pytest.raises(ValueError, match="out of range"):
        load_konect(konect)
    mtx = scratch / "small.mtx"
    mtx.write_text(
        f"%%MatrixMarket matrix coordinate pattern general\n{m} {n} {g.n_edges}\n{body}"
    )
    with pytest.raises(ValueError, match="out of range"):
        load_matrix_market(mtx)


@given(g=graphs(), seed=st.integers(0, 2**32 - 1))
@settings(**SETTINGS)
def test_extra_columns_and_mid_file_comments_accepted(scratch, g, seed):
    rng = np.random.default_rng(seed)
    lines = [f"% {g.n_edges} {g.n_left} {g.n_right}"]
    for a, b in g.edges().tolist():
        extra = " ".join(str(x) for x in rng.integers(0, 9, size=rng.integers(0, 3)))
        lines.append(f"{a + 1}\t{b + 1} {extra}")
        if rng.random() < 0.3:
            lines.append(rng.choice(["% note", "", "  % indented 1 2", "%"]))
    path = scratch / "extra.konect"
    path.write_text("\n".join(lines) + "\n")
    loaded = load_konect(path)
    assert loaded == g and loaded.shape == g.shape

    path = scratch / "extra.edges"
    path.write_text("".join(
        f"{a} {b} 7 {'# c' if i % 2 else ''}\n# mid\n\n"
        for i, (a, b) in enumerate(g.edges().tolist())
    ))
    assert load_edge_list(path).edges().tolist() == g.edges().tolist()


def test_loaders_reject_with_the_documented_messages(tmp_path):
    cases = [
        (load_konect, "g.konect", "1 2\n3\n", "malformed"),
        (load_konect, "g.konect", "1 2.5\n", "malformed"),
        (load_konect, "g.konect", "1 99999999999999999999\n", "malformed"),
        (load_konect, "g.konect", "0 1\n", "1-based"),
        (load_konect, "g.konect", "-4 1\n", "1-based"),
        (load_edge_list, "g.edges", "0 1\n2\n", "malformed"),
        (load_edge_list, "g.edges", "0 x\n", "malformed"),
        (load_matrix_market, "g.mtx",
         "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n", "truncated"),
        (load_matrix_market, "g.mtx",
         "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2\n", "malformed"),
        (load_matrix_market, "g.mtx",
         "%%MatrixMarket matrix coordinate pattern general\n2 2 -1\n", "malformed"),
    ]
    for loader, name, text, match in cases:
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            loader(path)


def test_mtx_reads_only_the_declared_entries(tmp_path):
    path = tmp_path / "g.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\nnot an entry\n"
    )
    assert load_matrix_market(path).edges().tolist() == [[0, 1]]


def _python_calls(fn) -> int:
    """Python-level and builtin calls made while running ``fn``."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_load_konect_does_no_per_line_python_work(tmp_path):
    """Calls made while loading do not grow with the number of edge lines."""
    counts = []
    for e in (1_000, 8_000):
        rng = np.random.default_rng(e)
        g = BipartiteGraph(np.stack([rng.integers(0, 300, e), rng.integers(0, 400, e)], 1))
        path = tmp_path / f"g{e}.konect"
        save_konect(g, path)
        counts.append(_python_calls(lambda: load_konect(path)))
    assert counts[1] - counts[0] < 100, counts
