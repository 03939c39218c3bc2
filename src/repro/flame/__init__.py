"""FLAME worksheet machinery: partition views and executable loop invariants."""

from repro._lazy import lazy_exports

_LAZY = {
    "check_invariant_trace": "repro.flame.invariant_checks",
    "expected_partial_count": "repro.flame.invariant_checks",
    "ColumnPartition": "repro.flame.partition",
    "RowPartition": "repro.flame.partition",
    "Worksheet": "repro.flame.worksheet",
    "run_worksheet": "repro.flame.worksheet",
    "worksheet_for": "repro.flame.worksheet",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())

__all__ = [*_LAZY]
