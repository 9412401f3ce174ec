"""NumPy array helpers shared across the package.

Kept deliberately small: coordinate coercion and vectorized pairwise
distances (the inner loop of every estimator).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import GeometryError

__all__ = ["as_point", "as_points", "pairwise_distances"]


def as_point(value: Sequence[float], name: str = "point") -> np.ndarray:
    """Coerce a 2-sequence to a float64 ``(2,)`` array, validating shape."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != (2,):
        raise GeometryError(f"{name} must be a 2-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise GeometryError(f"{name} contains non-finite values: {arr}")
    return arr


def as_points(values: Sequence[Sequence[float]], name: str = "points") -> np.ndarray:
    """Coerce a sequence of 2-sequences to a float64 ``(n, 2)`` array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1 and arr.shape == (2,):
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GeometryError(f"{name} must have shape (n, 2), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise GeometryError(f"{name} contains non-finite values")
    return arr


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between two point sets.

    Parameters
    ----------
    a: array of shape ``(n, 2)``
    b: array of shape ``(m, 2)``

    Returns
    -------
    Array of shape ``(n, m)`` with ``out[i, j] = ||a[i] - b[j]||``.

    Broadcast-based rather than loop-based; this is the hot path of the
    channel model and the estimators.
    """
    a = as_points(a, "a")
    b = as_points(b, "b")
    diff = a[:, np.newaxis, :] - b[np.newaxis, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
