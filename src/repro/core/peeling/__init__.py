"""Butterfly peeling: k-tip, k-wing, and the full decompositions."""

from repro._lazy import lazy_exports

_LAZY = {
    "tip_decrement_batch": "repro.core.peeling.buckets",
    "tip_numbers_bucket_parallel": "repro.core.peeling.buckets",
    "wing_numbers_bucket": "repro.core.peeling.buckets",
    "wing_numbers_bucket_parallel": "repro.core.peeling.buckets",
    "tip_numbers": "repro.core.peeling.decompose",
    "wing_numbers": "repro.core.peeling.decompose",
    "k_tip_linear_algebra": "repro.core.peeling.linear_algebra",
    "k_wing_linear_algebra": "repro.core.peeling.linear_algebra",
    "TipResult": "repro.core.peeling.tip",
    "k_tip": "repro.core.peeling.tip",
    "k_tip_lookahead": "repro.core.peeling.tip",
    "WingResult": "repro.core.peeling.wing",
    "k_wing": "repro.core.peeling.wing",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())

__all__ = [
    "TipResult",
    "k_tip",
    "k_tip_lookahead",
    "k_tip_linear_algebra",
    "WingResult",
    "k_wing",
    "k_wing_linear_algebra",
    "tip_decrement_batch",
    "tip_numbers",
    "tip_numbers_bucket_parallel",
    "wing_numbers",
    "wing_numbers_bucket",
    "wing_numbers_bucket_parallel",
]
