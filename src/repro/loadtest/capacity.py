"""Capacity model: localizations/s as a function of operating point.

Fitted from load-sweep points by ordinary least squares over a small
feature set — mean batch size, degraded (ladder-descent) fraction and
zone count — so ``repro report`` can answer "what throughput should
this configuration sustain?" and CI can flag a capacity regression as a
*model* shift rather than a single noisy number.

The solver is deliberately **pure Python** (normal equations +
Gauss–Jordan elimination with a tiny ridge term). ``numpy.linalg``
routes through whatever BLAS the platform ships, and different BLAS
builds legitimately differ in the last ulp — unacceptable for a model
whose canonical document is pinned byte-for-byte in a golden fixture.
A 4×4 solve does not need BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..exceptions import ConfigurationError

__all__ = ["CAPACITY_FEATURES", "CapacityModel", "fit_capacity_model"]

#: Feature keys of a sweep point, in model order (intercept implicit).
CAPACITY_FEATURES = (
    "batch_size_mean",
    "degraded_fraction",
    "n_zones",
)

#: Target key of a sweep point: sustained sim-clock localizations/s.
CAPACITY_TARGET = "sustained_per_s"

#: Ridge term stabilizing the normal equations when a sweep holds a
#: feature constant (e.g. every point at n_zones=1): the coefficient of
#: a constant column is pulled to 0 instead of blowing up.
_RIDGE = 1e-9


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """Gauss–Jordan with partial pivoting; pure-Python determinism."""
    n = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) < 1e-30:
            raise ConfigurationError(
                "capacity model normal equations are singular"
            )
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for row in range(n):
            if row == col:
                continue
            factor = aug[row][col]
            if factor:
                aug[row] = [
                    v - factor * p for v, p in zip(aug[row], aug[col])
                ]
    return [aug[i][n] for i in range(n)]


@dataclass(frozen=True)
class CapacityModel:
    """A fitted linear capacity model.

    ``coefficients`` aligns with :data:`CAPACITY_FEATURES`;
    ``intercept`` is the implicit constant term. ``r2`` is the in-sample
    coefficient of determination (1.0 on an exactly linear sweep).
    """

    features: tuple[str, ...]
    intercept: float
    coefficients: tuple[float, ...]
    r2: float
    n_points: int

    def predict(self, point: Mapping[str, float]) -> float:
        """Predicted sustained localizations/s at ``point``."""
        try:
            return self.intercept + sum(
                c * float(point[f])
                for c, f in zip(self.coefficients, self.features)
            )
        except KeyError as exc:
            raise ConfigurationError(
                f"capacity-model point is missing feature {exc}"
            ) from None

    def canonical_document(self) -> dict:
        """Byte-stable JSON document (floats rounded to 9 decimals)."""
        return {
            "target": CAPACITY_TARGET,
            "features": list(self.features),
            "intercept": round(self.intercept, 9),
            "coefficients": {
                f: round(c, 9)
                for f, c in zip(self.features, self.coefficients)
            },
            "r2": round(self.r2, 9) if math.isfinite(self.r2) else None,
            "n_points": self.n_points,
        }


def fit_capacity_model(
    points: Sequence[Mapping[str, float]],
    *,
    features: Sequence[str] = CAPACITY_FEATURES,
) -> CapacityModel:
    """Least-squares fit of :data:`CAPACITY_TARGET` over ``features``.

    Each point is a flat mapping (a sweep-point capacity record, see
    :meth:`repro.loadtest.generator.LoadTestReport.capacity_point`).
    Needs at least one point; with fewer points than coefficients the
    ridge term keeps the fit defined (it degenerates gracefully toward
    the mean).
    """
    if not points:
        raise ConfigurationError(
            "capacity model needs at least one sweep point"
        )
    features = tuple(features)
    k = len(features) + 1  # + intercept
    rows = []
    ys = []
    for point in points:
        try:
            rows.append(
                [1.0] + [float(point[f]) for f in features]
            )
            ys.append(float(point[CAPACITY_TARGET]))
        except KeyError as exc:
            raise ConfigurationError(
                f"sweep point is missing key {exc}"
            ) from None
    # Normal equations AᵀA x = Aᵀy with ridge on the diagonal.
    ata = [
        [
            sum(row[i] * row[j] for row in rows)
            + (_RIDGE if i == j else 0.0)
            for j in range(k)
        ]
        for i in range(k)
    ]
    atb = [sum(row[i] * y for row, y in zip(rows, ys)) for i in range(k)]
    solution = _solve(ata, atb)
    intercept, coefficients = solution[0], tuple(solution[1:])
    predictions = [
        intercept + sum(c * v for c, v in zip(coefficients, row[1:]))
        for row in rows
    ]
    mean_y = sum(ys) / len(ys)
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    ss_res = sum((y - p) ** 2 for y, p in zip(ys, predictions))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else math.nan
    return CapacityModel(
        features=features,
        intercept=intercept,
        coefficients=coefficients,
        r2=r2,
        n_points=len(points),
    )
