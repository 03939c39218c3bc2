"""Pure-Python reference transliterations of the paper's algorithms.

No NumPy inside the algorithms — plain lists, dicts, and loops, written to
match the paper's pseudocode line-for-line.  These are the slowest and
most auditable implementations in the repository; their role is

1. a fourth independent oracle (no shared kernels with anything else),
2. the version of the code a reader holds next to the paper's figures.
"""

from repro._lazy import lazy_exports

_LAZY = {
    "butterflies_reference": "repro.reference.family_reference",
    "butterflies_reference_all_invariants": "repro.reference.family_reference",
    "k_tip_reference": "repro.reference.peeling_reference",
    "k_wing_reference": "repro.reference.peeling_reference",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())

__all__ = [
    "butterflies_reference",
    "butterflies_reference_all_invariants",
    "k_tip_reference",
    "k_wing_reference",
]
