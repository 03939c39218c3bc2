"""Fuzz of the CLI's GRAPH argument, run in-process through ``main``.

Whatever the spec — ``dataset:<text>``, ``empty:<text>``, or a path to a
missing, empty or non-UTF-8 file — ``count`` either exits 0 and prints a
count, or exits 2 with exactly one ``repro-butterfly: error:`` line.  It
never shows a traceback.  The spec follows ``--`` so that a leading ``-``
reaches the loader instead of argparse.

Generated ``empty:MxN`` sizes stay small: a mid-sized graph would really
be allocated.  The too-large case is pinned by explicit examples whose
allocation fails at once (petabytes).
"""

import contextlib
import io
import itertools
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.graphs import dataset_names

SETTINGS = dict(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_HUGE = 10**15  # vertices: 8 PB of int64, refused by any allocator


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("graph_spec_fuzz")


_names = itertools.count()


def _count(spec: str) -> int:
    """Run ``count SPEC`` and check the exit contract; returns the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["count", "--auto", "--", spec])
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert re.search(r"^butterflies: \d+$", out.getvalue(), re.M)
        assert err.getvalue() == ""
    else:
        assert code == 2
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro-butterfly: error: ")
    return code


@settings(**SETTINGS)
@given(st.one_of(st.text(max_size=16), st.sampled_from(dataset_names())))
def test_dataset_spec(name):
    code = _count(f"dataset:{name}")
    assert code == (0 if name in dataset_names() else 2)


_SIZE = st.integers(-3, 40).map(str)


@settings(**SETTINGS)
@given(st.one_of(
    st.text(max_size=16),
    st.tuples(_SIZE, st.sampled_from(["x", "X", " x ", "xx", "*"]), _SIZE)
    .map("".join),
))
@example(f"{_HUGE}x1")
@example(f"1x{_HUGE}")
def test_empty_spec(dims):
    _count(f"empty:{dims}")


@settings(**SETTINGS)
@given(st.text(max_size=24))
def test_missing_file(scratch, name):
    # no "/": the name stays inside the scratch directory
    assert _count(str(scratch / f"missing-{name.replace('/', '_')}")) == 2


@settings(**SETTINGS)
@given(
    st.sampled_from(["", "\n", "\r\n", "   \n\t\n", "% bip unweighted\n",
                     "% 0 0 0\n"]),
    st.sampled_from([".tsv", ".konect", ".gz"]),
)
def test_empty_file(scratch, text, suffix):
    path = scratch / f"empty-{next(_names)}{suffix}"
    path.write_text(text)
    _count(str(path))


@settings(**SETTINGS)
@given(
    st.binary(max_size=32), st.binary(max_size=32),
    st.sampled_from([b"\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\x80"]),
    st.sampled_from([".tsv", ".gz"]),
)
def test_non_utf8_file(scratch, head, tail, bad, suffix):
    path = scratch / f"bytes-{next(_names)}{suffix}"
    path.write_bytes(head + bad + tail)
    assert _count(str(path)) == 2


@pytest.mark.parametrize("line", [f"1 {_HUGE}\n", f"{_HUGE} 1\n"])
def test_edge_file_naming_a_huge_vertex(line, scratch):
    path = scratch / f"huge-{next(_names)}.tsv"
    path.write_text(line)
    assert _count(str(path)) == 2
