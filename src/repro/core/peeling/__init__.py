"""Butterfly peeling: k-tip, k-wing, and the full decompositions."""

from repro.core.peeling.buckets import (
    tip_decrement_batch,
    tip_numbers_bucket_parallel,
    wing_numbers_bucket,
    wing_numbers_bucket_parallel,
)
from repro.core.peeling.decompose import tip_numbers, wing_numbers
from repro.core.peeling.linear_algebra import (
    k_tip_linear_algebra,
    k_wing_linear_algebra,
)
from repro.core.peeling.tip import TipResult, k_tip, k_tip_lookahead
from repro.core.peeling.wing import WingResult, k_wing

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
