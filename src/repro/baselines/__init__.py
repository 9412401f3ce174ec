"""Baseline estimators: LANDMARC and related comparison points.

* :class:`LandmarcEstimator` — the paper's baseline (Ni et al. 2003):
  k-nearest reference tags in RSSI space, weighted by 1/E².
* :class:`NearestReferenceEstimator` — snap to the single closest
  reference tag (k=1 degenerate case).
* :class:`WeightedCentroidEstimator` — softmax-weighted centroid over all
  reference tags (no hard k cut-off).
"""

from .landmarc import LandmarcEstimator
from .nearest import NearestReferenceEstimator
from .centroid import WeightedCentroidEstimator
from .fingerprint import FingerprintEstimator

__all__ = [
    "LandmarcEstimator",
    "NearestReferenceEstimator",
    "WeightedCentroidEstimator",
    "FingerprintEstimator",
]
