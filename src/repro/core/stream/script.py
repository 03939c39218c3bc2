"""Edge-script format for replaying and pinning streaming workloads.

A script is a line-oriented text format shared by the CLI ``stream``
subcommand, the randomized conformance harness, and the committed
regression corpus under ``tests/data/stream_scripts/``::

    # comments and blank lines are ignored
    + 0 3        # insert edge (0, 3)
    - 0 3        # delete edge (0, 3)
    flush        # batch boundary: apply everything accumulated so far

Ops between ``flush`` lines form one batch; a trailing partial segment is
a final batch.  Within a batch the counter's documented semantics hold:
deletes apply before inserts (an edge listed in both ends up present),
duplicates collapse, absent deletes and present inserts are skipped.

The representation is deliberately trivial — a list of ``("+"|"-", u,
v)`` tuples plus ``("flush",)`` markers — so hypothesis can shrink failed
scripts to tiny readable reproducers, which are then committed verbatim.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Op",
    "parse_script",
    "format_script",
    "load_script",
    "iter_batches",
]

#: One script operation: ``("+", u, v)``, ``("-", u, v)`` or ``("flush",)``.
Op = tuple

#: A vertex id token: ASCII decimal digits, the edge-file loader's
#: dialect (a leading ``-`` parses, to be rejected as negative).
#: Python's ``int`` also takes ``1_0``, ``+1`` and non-ASCII digits.
_ID = re.compile(r"-?[0-9]+")


def parse_script(text: str, shape: tuple[int, int] | None = None) -> list[Op]:
    """Parse script text into an op list; raises ``ValueError`` on bad lines.

    Ids are ASCII decimal integers, as in an edge file; anything else
    (non-ASCII text, ``1_0``, ``+1``) is a bad line, reported with its
    line number.  With ``shape=(n_left, n_right)`` an edge id outside
    ``[0, n)`` of its side is a bad line too.
    """
    ops: list[Op] = []
    # lines end at "\n" only (a file is read with universal newlines);
    # str.splitlines would also end one at U+2028 or U+0085
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        if not line.isascii():
            raise ValueError(f"line {lineno}: non-ASCII text in {raw!r}")
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "flush":
            if len(parts) != 1:
                raise ValueError(f"line {lineno}: 'flush' takes no arguments")
            ops.append(("flush",))
            continue
        if parts[0] not in ("+", "-") or len(parts) != 3:
            raise ValueError(
                f"line {lineno}: expected '+ u v', '- u v' or 'flush', "
                f"got {raw!r}"
            )
        try:
            if not (_ID.fullmatch(parts[1]) and _ID.fullmatch(parts[2])):
                raise ValueError("not decimal digits")
            u, v = int(parts[1]), int(parts[2])
        except ValueError as exc:  # (int also refuses > 4300 digits)
            raise ValueError(
                f"line {lineno}: vertex ids must be decimal integers, "
                f"got {raw!r}"
            ) from exc
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: vertex ids must be non-negative")
        for side, vertex, n in zip(("left", "right"), (u, v), shape or ()):
            if vertex >= n:
                raise ValueError(
                    f"line {lineno}: {side} vertex {vertex} out of range "
                    f"[0, {n})"
                )
        ops.append((parts[0], u, v))
    return ops


def format_script(ops: Iterable[Op]) -> str:
    """Render an op list back to canonical script text."""
    lines = []
    for op in ops:
        if op[0] == "flush":
            lines.append("flush")
        elif op[0] in ("+", "-"):
            lines.append(f"{op[0]} {op[1]} {op[2]}")
        else:
            raise ValueError(f"unknown op {op!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def load_script(path, shape: tuple[int, int] | None = None) -> list[Op]:
    """Read and parse a script file (``shape`` as in :func:`parse_script`)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_script(fh.read(), shape)


def iter_batches(
    ops: Sequence[Op],
) -> Iterator[tuple[list[tuple[int, int]], list[tuple[int, int]]]]:
    """Yield ``(insert, delete)`` edge lists, one per flush-delimited batch.

    Explicit ``flush`` markers always yield a batch (possibly empty); a
    trailing segment without a closing ``flush`` is yielded only when it
    contains at least one edit.
    """
    insert: list[tuple[int, int]] = []
    delete: list[tuple[int, int]] = []
    pending = False
    for op in ops:
        if op[0] == "flush":
            yield insert, delete
            insert, delete, pending = [], [], False
        elif op[0] == "+":
            insert.append((op[1], op[2]))
            pending = True
        elif op[0] == "-":
            delete.append((op[1], op[2]))
            pending = True
        else:
            raise ValueError(f"unknown op {op!r}")
    if pending:
        yield insert, delete
