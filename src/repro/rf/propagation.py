"""Deterministic distance-dependent path loss.

:class:`LogDistancePathLoss` maps distance (metres) to mean received
power (dBm) for the active-RFID link budget. The paper (§2) notes the
inverse-square law of open space becomes a third- or fourth-power law
indoors; the exponent ``gamma`` is exactly that knob.

``rssi(d)`` is vectorized: it accepts scalars or arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from ..utils.validation import ensure_positive

__all__ = ["LogDistancePathLoss"]

#: Distances below this are clamped; RSSI at sub-centimetre range is
#: physically meaningless and would otherwise diverge.
MIN_DISTANCE_M = 0.01


def _clamped(distance_m: np.ndarray | float) -> np.ndarray:
    d = np.asarray(distance_m, dtype=np.float64)
    if np.any(d < 0):
        raise ConfigurationError("distance must be non-negative")
    return np.maximum(d, MIN_DISTANCE_M)


@dataclass(frozen=True)
class LogDistancePathLoss:
    """The standard log-distance model.

    ``RSSI(d) = rssi_at_reference - 10 * gamma * log10(d / d0)``

    Parameters
    ----------
    rssi_at_reference:
        Mean RSSI (dBm) at the reference distance ``d0`` (typically the
        1 m link budget of the tag/reader pair).
    gamma:
        Path-loss exponent; 2 in free space, 2.5-4 indoors.
    reference_distance_m:
        The reference distance ``d0``.
    """

    rssi_at_reference: float = -45.0
    gamma: float = 2.0
    reference_distance_m: float = 1.0

    def __post_init__(self) -> None:
        ensure_positive(self.gamma, "gamma")
        ensure_positive(self.reference_distance_m, "reference_distance_m")
        if not np.isfinite(self.rssi_at_reference):
            raise ConfigurationError("rssi_at_reference must be finite")

    def rssi(self, distance_m: np.ndarray | float) -> np.ndarray:
        d = _clamped(distance_m)
        return self.rssi_at_reference - 10.0 * self.gamma * np.log10(
            d / self.reference_distance_m
        )
