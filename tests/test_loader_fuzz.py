"""Robustness fuzz of the two graph loaders.

Random text fed to :func:`load_konect` and :func:`load_edge_list` may be
rejected, but only with ``ValueError``
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
    save_edge_list,
    save_konect,
)

SETTINGS = dict(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["%", "#", "1.5", "2.0", "-0", "+3", "1e3", "nan", "inf", "x", "", "\t"]),
    st.text(max_size=4),
)
_LINES = st.lists(
    st.lists(_TOKENS, max_size=5).map(" ".join), max_size=12
).map("\n".join)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("loader_fuzz")


def _load(loader, path):
    """Call ``loader``; only a ``ValueError`` may escape."""
    try:
        loader(path)
    except ValueError:
        pass


@given(body=_LINES)
@settings(**SETTINGS)
def test_random_text_raises_only_value_error(scratch, body):
    for name, loader in (("g.konect", load_konect), ("g.edges", load_edge_list)):
        path = scratch / name
        path.write_text(body, encoding="utf-8")
        _load(loader, path)


@given(blob=st.binary(max_size=64))
@settings(**SETTINGS)
def test_random_bytes_raise_only_value_error(scratch, blob):
    for name, loader in (("b.konect", load_konect), ("b.edges", load_edge_list)):
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
        # non-ASCII ids never reach numpy's integer parser, which can crash
        # the interpreter on some characters outside the BMP
        (load_konect, "g.konect", "1 2\n1\U000e0000\n", "malformed"),
        (load_edge_list, "g.edges", "\U000d5ac9 1\n", "malformed"),
    ]
    for loader, name, text, match in cases:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=match):
            loader(path)


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
