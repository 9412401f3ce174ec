"""Configuration of the VIRE estimator.

Collects every design parameter the paper discusses (subdivision density
§5.2, threshold §5.3, weighting §4.3) plus the documented deviations
(w1 mode, empty-intersection fallback) into one validated dataclass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Real

from ..exceptions import ConfigurationError
from ..utils.validation import ensure_positive_int

__all__ = ["VIREConfig"]

_INTERPOLATIONS = ("linear", "polynomial", "spline")
_THRESHOLD_MODES = ("adaptive", "fixed")
_W1_MODES = ("inverse", "paper-literal", "uniform")
_FALLBACKS = ("relax", "landmarc", "error")


@dataclass(frozen=True)
class VIREConfig:
    """All knobs of :class:`~repro.core.estimator.VIREEstimator`.

    Parameters
    ----------
    subdivisions:
        ``n`` — virtual cells per physical cell edge. The paper's
        preferred operating point N² ≈ 900 total virtual tags corresponds
        to n = 10 on the 4x4 grid (31 x 31 = 961 tags). Ignored when
        ``target_total_tags`` is set.
    target_total_tags:
        If set, choose the smallest ``n`` whose virtual lattice reaches at
        least this many total tags (the paper's N² axis in Fig. 7).
    interpolation:
        ``"linear"`` (the paper), ``"polynomial"`` or ``"spline"``
        (§6 future work).
    threshold_mode:
        ``"adaptive"`` (paper §4.3's reduction algorithm) or ``"fixed"``
        (the Fig. 8 sweep).
    fixed_threshold_db:
        Threshold used in ``"fixed"`` mode.
    min_cells:
        Adaptive mode keeps shrinking until fewer than this many cells
        would survive; 1 reproduces the paper's "smallest area".
    threshold_margin_db:
        Added on top of the minimal feasible threshold in adaptive mode.
        A bare minimal threshold keeps literally the single best cell,
        which makes the estimate track measurement noise; the margin
        widens the surviving region so the weighted centroid averages
        noise out. The paper's Fig. 8 sweet spot (threshold 1-1.5 while
        the minimal feasible value is near 0) indicates the original
        system also operated with such a margin.
    min_votes:
        Cells surviving in at least this many reader maps are kept.
        ``None`` means all K readers (the paper's strict intersection).
    w1_mode:
        ``"inverse"`` — weight 1/(mean |RSSI diff|) (the evident intent);
        ``"paper-literal"`` — the printed formula's magnitude, inverted;
        ``"uniform"`` — disable w1 (ablation).
    use_w2:
        Enable the cluster-density factor w2 (ablation switch).
    connectivity:
        4 or 8 — neighbourhood used for w2's conjunctive regions.
    empty_fallback:
        What to do if the intersection is empty in ``"fixed"`` mode:
        ``"relax"`` — locally relax the threshold to the minimal feasible
        value; ``"landmarc"`` — fall back to classic LANDMARC;
        ``"error"`` — raise :class:`~repro.exceptions.EstimationError`.
    boundary_extension_cells:
        Extend the virtual lattice this many *physical* cells beyond the
        real grid by linear extrapolation (§6: compensating boundary
        tags). 0 reproduces the paper.
    """

    subdivisions: int = 10
    target_total_tags: int | None = None
    interpolation: str = "linear"
    threshold_mode: str = "adaptive"
    fixed_threshold_db: float = 1.0
    min_cells: int = 1
    threshold_margin_db: float = 1.5
    min_votes: int | None = None
    w1_mode: str = "inverse"
    use_w2: bool = True
    connectivity: int = 4
    empty_fallback: str = "relax"
    boundary_extension_cells: int = 0

    def __post_init__(self) -> None:
        # Validate only; the fields keep the values the caller passed.
        ensure_positive_int(self.subdivisions, "subdivisions")
        if self.target_total_tags is not None:
            ensure_positive_int(self.target_total_tags, "target_total_tags", minimum=4)
        if self.interpolation not in _INTERPOLATIONS:
            raise ConfigurationError(
                f"interpolation must be one of {_INTERPOLATIONS}, "
                f"got {self.interpolation!r}"
            )
        if self.threshold_mode not in _THRESHOLD_MODES:
            raise ConfigurationError(
                f"threshold_mode must be one of {_THRESHOLD_MODES}, "
                f"got {self.threshold_mode!r}"
            )
        # Both thresholds may be +inf (elimination off); NaN compares
        # false everywhere and would silently select the wrong cells.
        for name in ("fixed_threshold_db", "threshold_margin_db"):
            value = getattr(self, name)
            if (
                not isinstance(value, Real)
                or isinstance(value, bool)
                or math.isnan(value)
            ):
                raise ConfigurationError(
                    f"{name} must be a number, not NaN, got {value!r}"
                )
        if self.fixed_threshold_db <= 0:
            raise ConfigurationError(
                f"fixed_threshold_db must be positive, got {self.fixed_threshold_db}"
            )
        ensure_positive_int(self.min_cells, "min_cells")
        if self.threshold_margin_db < 0:
            raise ConfigurationError(
                f"threshold_margin_db must be >= 0, got {self.threshold_margin_db}"
            )
        if self.min_votes is not None:
            ensure_positive_int(self.min_votes, "min_votes")
        if self.w1_mode not in _W1_MODES:
            raise ConfigurationError(
                f"w1_mode must be one of {_W1_MODES}, got {self.w1_mode!r}"
            )
        if not isinstance(self.use_w2, bool):
            raise ConfigurationError(f"use_w2 must be a bool, got {self.use_w2!r}")
        if ensure_positive_int(self.connectivity, "connectivity") not in (4, 8):
            raise ConfigurationError(
                f"connectivity must be 4 or 8, got {self.connectivity}"
            )
        if self.empty_fallback not in _FALLBACKS:
            raise ConfigurationError(
                f"empty_fallback must be one of {_FALLBACKS}, "
                f"got {self.empty_fallback!r}"
            )
        ensure_positive_int(
            self.boundary_extension_cells, "boundary_extension_cells", minimum=0
        )

    def with_(self, **changes) -> "VIREConfig":
        """Return a modified copy (thin wrapper over dataclasses.replace)."""
        return replace(self, **changes)
