"""Finding records and per-line suppression parsing.

A :class:`Finding` is one rule violation at one source location; the
rendered output always carries exact ``file:line:col`` coordinates.

Suppressions are per-line pragma comments::

    total = int(arr.sum())  # repro: noqa[RPR002] dtype follows operands

``# repro: noqa`` with no bracket suppresses every rule on that line;
``# repro: noqa[RPR001,RPR006]`` suppresses only the named rules.  Any
text after the bracket is the (encouraged) justification.  The analyzer
counts suppressed findings separately so ``--format json`` can report
how much of the tree is pragma-gated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = ["Finding", "Suppressions", "SEVERITIES", "parse_suppressions"]

#: Valid severity labels, mildest first.
SEVERITIES: tuple[str, ...] = ("note", "warning", "error")

_NOQA_RE = re.compile(
    # the pragma may ride behind another comment, e.g.
    # ``# pragma: no cover; repro: noqa[RPR006] reason``
    r"#.*?\brepro:\s*noqa(?:\[(?P<rules>[A-Z0-9_,\s]+)\])?", re.IGNORECASE
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str  #: rule id, e.g. ``"RPR002"``
    path: str  #: path as given to the analyzer (normally repo-relative)
    line: int  #: 1-based source line
    col: int  #: 0-based column
    message: str  #: human-readable description with the fix direction
    severity: str = "error"  #: one of :data:`SEVERITIES`

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    @property
    def location(self) -> str:
        """``path:line:col`` — the clickable coordinate string."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict[str, object]:
        """JSON-renderer payload (stable schema, see docs/analysis.md)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
        }


@dataclass
class Suppressions:
    """Per-line ``# repro: noqa`` pragmas of one source file."""

    #: line → frozenset of rule ids, with the empty set meaning "all rules"
    by_line: dict[int, frozenset[str]] = field(default_factory=dict)
    #: how many findings the pragmas actually absorbed (filled by the engine)
    used: int = 0

    def suppresses(self, finding: Finding) -> bool:
        rules = self.by_line.get(finding.line)
        if rules is None:
            return False
        return not rules or finding.rule.upper() in rules


def parse_suppressions(source: str) -> Suppressions:
    """Scan source text for ``# repro: noqa[...]`` pragmas.

    A plain regex over physical lines: a pragma inside a string literal
    would also match.  That only ever *widens* what is suppressed (and
    the self-scan test keeps the repo's pragma count explicit), but a
    literal spelling an unknown rule id is reported as a stale pragma
    like a real one.
    """
    by_line: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "noqa" not in text:  # cheap pre-filter
            continue
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            by_line[lineno] = frozenset()
        else:
            by_line[lineno] = frozenset(
                part.strip().upper() for part in rules.split(",") if part.strip()
            )
    return Suppressions(by_line=by_line)
