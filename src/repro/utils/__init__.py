"""Small shared utilities: RNG management, validation, arrays, ASCII plots."""

from .rng import derive_rng, derive_seed
from .validation import (
    ensure_finite,
    ensure_in_range,
    ensure_positive,
    ensure_positive_int,
)
from .arrays import as_point, as_points, pairwise_distances

__all__ = [
    "derive_rng",
    "derive_seed",
    "ensure_finite",
    "ensure_in_range",
    "ensure_positive",
    "ensure_positive_int",
    "as_point",
    "as_points",
    "pairwise_distances",
]
