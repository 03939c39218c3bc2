"""Fuzz of ``stream`` scripts, run in-process through ``main``.

Whatever the script — arbitrary text, non-UTF-8 bytes, oversized ids,
``1_0``-style or non-ASCII digits, stray tokens — ``stream`` either
exits 0 and prints a count equal to a recount of the edges the script
leaves, or exits 2 with exactly one ``repro-butterfly: error:`` line.
It never shows a traceback.

Which scripts are good is decided here independently of the program's
parser: lines end at ``\\n`` (a text file reads ``\\r\\n`` and ``\\r`` as
it), ``#`` starts a comment, the rest is ASCII and reads ``flush`` or
``+``/``-`` and two decimal ids inside the graph.
"""

import contextlib
import io
import itertools
import json
import re
from itertools import combinations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cli import main

SETTINGS = dict(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

SHAPE = (5, 6)

_names = itertools.count()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("stream_script_fuzz")


def _expected(text: str):
    """The edge set a good script leaves, or None for a bad one."""
    edges: set[tuple[int, int]] = set()
    insert: set[tuple[int, int]] = set()
    delete: set[tuple[int, int]] = set()
    for raw in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        body = raw.split("#", 1)[0]
        if not body.isascii():
            return None
        tokens = body.split()
        if not tokens:
            continue
        if tokens == ["flush"]:
            edges = (edges - delete) | insert
            insert, delete = set(), set()
            continue
        if len(tokens) != 3 or tokens[0] not in ("+", "-"):
            return None
        if not all(re.fullmatch(r"[0-9]+", tok) for tok in tokens[1:]):
            return None
        # (a long id is out of range; int() refuses > 4300 digits)
        u, v = (int(t) if len(t.lstrip("0")) < 4 else 999 for t in tokens[1:])
        if u >= SHAPE[0] or v >= SHAPE[1]:
            return None
        (insert if tokens[0] == "+" else delete).add((u, v))
    return (edges - delete) | insert


def _butterflies(edges) -> int:
    rows = {u: {v for x, v in edges if x == u} for u, _ in edges}
    return sum(
        len(rows[u] & rows[w]) * (len(rows[u] & rows[w]) - 1) // 2
        for u, w in combinations(sorted(rows), 2)
    )


def _stream(scratch, data: bytes):
    """Run ``stream`` over a script holding ``data``; checks the exit
    contract and returns ``(code, butterflies or None)``."""
    path = scratch / f"script-{next(_names)}.txt"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["stream", f"empty:{SHAPE[0]}x{SHAPE[1]}", str(path), "--json"])
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
        return code, json.loads(out.getvalue())["butterflies"]
    assert code == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("repro-butterfly: error: ")
    return code, None


def _check(scratch, text: str) -> None:
    code, count = _stream(scratch, text.encode("utf-8"))
    want = _expected(text)
    if want is None:
        assert code == 2
    else:
        assert code == 0 and count == _butterflies(want)


_ID = st.one_of(
    st.integers(0, 7).map(str),
    st.sampled_from([
        "1_0", "١", "１", "²", "+1", "-1", "0x1", "1.0", "1e1",
        "99999999999999999999", "9" * 5000, "",
    ]),
)
_LINE = st.one_of(
    st.tuples(st.sampled_from(["+", "-"]), _ID, _ID).map(" ".join),
    st.sampled_from(["flush", "flush 1", "# note", "", "+", "+ 1", "* 1 2"]),
    st.lists(
        st.one_of(_ID, st.sampled_from(["+", "-", "flush", "#", " ", "\t"])),
        max_size=4,
    ).map(" ".join),
    st.text(max_size=12),
)


@settings(**SETTINGS)
@given(st.lists(_LINE, max_size=10).map("\n".join))
@example("+ 0 1_0\n")  # int() reads 10
@example("+ 0 ١\n")  # int() reads 1
@example("+ 0 1\n+ 0 2\n+ 1 1\n+ 1 2\nflush\n- 0 1\n+ 2 1\n+ 2 2\n")
@example("+ 0 1\r+ 1 1\r\n+ 0 2\r+ 1 2")
def test_line_scripts(scratch, text):
    _check(scratch, text)


@settings(**SETTINGS)
@given(st.text(max_size=40))
def test_arbitrary_text(scratch, text):
    _check(scratch, text)


@settings(**SETTINGS)
@given(
    st.binary(max_size=24), st.binary(max_size=24),
    st.sampled_from([b"\xff", b"\xc3\x28", b"\xed\xa0\x80", b"\x80"]),
)
def test_non_utf8_bytes(scratch, head, tail, bad):
    assert _stream(scratch, head + bad + tail)[0] == 2
