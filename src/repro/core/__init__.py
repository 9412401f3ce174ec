"""The VIRE algorithm (the paper's contribution) and its extensions.

Pipeline (paper §4):

1. :mod:`~repro.core.virtual_grid` — densify the real reference grid
   with virtual reference tags (n x n per physical cell);
2. :mod:`~repro.core.interpolation` — per reader, interpolate the real
   tags' RSSI onto the virtual lattice (linear in the paper; polynomial
   and spline variants implement §6's future work);
3. :mod:`~repro.core.proximity` — per reader, mark virtual cells whose
   RSSI is within a threshold of the tracking tag's (the proximity map);
4. :mod:`~repro.core.elimination` — intersect the K maps, eliminating
   unlikely positions;
5. :mod:`~repro.core.threshold` — adaptively shrink the threshold to the
   smallest value that keeps the intersection alive;
6. :mod:`~repro.core.weighting` — weight surviving cells by RSSI
   discrepancy (w1) and cluster density (w2);
7. :class:`~repro.core.estimator.VIREEstimator` — the weighted centroid.

Extensions: :mod:`~repro.core.boundary` (boundary-tag detection and
compensation) and :mod:`~repro.core.irregular` (per-cell virtual
granularity), both sketched as future work in the paper's §6.
"""

from .config import VIREConfig
from .virtual_grid import VirtualGrid
from .interpolation import (
    BilinearInterpolator,
    PolynomialInterpolator,
    SplineInterpolator,
    fill_masked_lattice,
    make_interpolator,
)
from .proximity import ProximityMap, build_proximity_maps
from .quorum import QuorumDecision, QuorumPolicy
from .elimination import eliminate, vote_map
from .threshold import AdaptiveThresholdSelector, minimal_feasible_threshold
from .weighting import combine_weights, compute_w1, compute_w2
from .estimator import VIREEstimator
from .soft import SoftVIREEstimator
from .boundary import BoundaryAwareEstimator, is_boundary_estimate
from .irregular import IrregularVirtualGrid, IrregularVIREEstimator

__all__ = [
    "VIREConfig",
    "VirtualGrid",
    "BilinearInterpolator",
    "PolynomialInterpolator",
    "SplineInterpolator",
    "make_interpolator",
    "fill_masked_lattice",
    "ProximityMap",
    "build_proximity_maps",
    "QuorumDecision",
    "QuorumPolicy",
    "eliminate",
    "vote_map",
    "AdaptiveThresholdSelector",
    "minimal_feasible_threshold",
    "compute_w1",
    "compute_w2",
    "combine_weights",
    "VIREEstimator",
    "SoftVIREEstimator",
    "BoundaryAwareEstimator",
    "is_boundary_estimate",
    "IrregularVirtualGrid",
    "IrregularVIREEstimator",
]
