"""Per-reading fast fading.

On top of the frozen spatial field (path loss + shadowing + multipath),
each individual beacon reception fluctuates: small motions, orientation
changes and receiver noise make repeated readings at the same position
spread over several dB (the min/max whiskers of the paper's Fig. 3).

We model the per-reading multiplicative power factor with a Rician
distribution: a dominant (line-of-sight) component of relative power
``K/(K+1)`` plus diffuse scatter ``1/(K+1)``. Large K means stable
readings (open areas); small K means heavy fluctuation (cluttered rooms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..utils.validation import ensure_non_negative

__all__ = ["FadingModel", "RicianFading", "NoFading"]


@runtime_checkable
class FadingModel(Protocol):
    """Per-reading fading offsets in dB, computed from standard normals.

    A model declares how many standard normals one reading consumes
    (``normals_per_read``) and maps a ``(..., normals_per_read)`` block
    of them to dB offsets. The channel draws those normals in one block
    per call (docs/CHANNEL.md, "Field and draw order").
    """

    normals_per_read: int

    def db_from_normals(self, z: np.ndarray) -> np.ndarray:
        """Fading offsets (dB), shape ``z.shape[:-1]``."""
        ...


@dataclass(frozen=True)
class NoFading:
    """Degenerate fading model: every reading equals the mean RSSI."""

    normals_per_read = 0

    def db_from_normals(self, z: np.ndarray) -> np.ndarray:
        return np.zeros(z.shape[:-1])


@dataclass(frozen=True)
class RicianFading:
    """Rician fast fading with K-factor ``k_factor``.

    The instantaneous complex channel is
    ``h = sqrt(K/(K+1)) + sqrt(1/(2(K+1))) * (g1 + j g2)`` with standard
    normal ``g1, g2``; the dB offset is ``10 log10 |h|^2``. ``k_factor=0``
    degenerates to Rayleigh fading.

    ``floor_db`` truncates catastrophic fades: receivers time-average over
    the beacon and never report a 40 dB null.
    """

    k_factor: float = 6.0
    floor_db: float = -20.0

    #: ``g1, g2``: the in-phase and quadrature scatter of one reading.
    normals_per_read = 2

    def __post_init__(self) -> None:
        ensure_non_negative(self.k_factor, "k_factor")
        if self.floor_db >= 0:
            raise ValueError(f"floor_db must be negative, got {self.floor_db}")

    def db_from_normals(self, z: np.ndarray) -> np.ndarray:
        k = self.k_factor
        los = np.sqrt(k / (k + 1.0))
        scatter_scale = np.sqrt(1.0 / (2.0 * (k + 1.0)))
        g = z * scatter_scale
        h_re = los + g[..., 0]
        h_im = g[..., 1]
        power = h_re**2 + h_im**2
        db = 10.0 * np.log10(np.maximum(power, 1e-12))
        return np.maximum(db, self.floor_db)
