"""Per-reader proximity maps (paper §4.3).

A proximity map divides the sensing area into regions centred on the
virtual reference tags; a region is marked (``1``) when the absolute
difference between its interpolated RSSI and the tracking tag's RSSI at
that reader is below the threshold. "Each reader will maintain its own
proximity map."

Masked inputs: deviation tensors may contain NaN where a virtual RSSI
value is unknown (degraded deployments). A NaN deviation is *never* a
candidate — unknown signal strength cannot place the tag — and the
comparison is computed only over finite entries so no floating-point
warnings leak. On fully finite input the masks are bit-identical to the
naive ``dev <= threshold``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["ProximityMap", "build_proximity_maps", "rssi_deviations"]


@dataclass(frozen=True)
class ProximityMap:
    """One reader's boolean candidate map over the virtual lattice.

    Attributes
    ----------
    mask:
        Boolean ``(v_rows, v_cols)`` array; True = candidate region.
    threshold_db:
        Threshold used to build the mask.
    reader_index:
        Which reader this map belongs to.
    """

    mask: np.ndarray
    threshold_db: float
    reader_index: int

    def __post_init__(self) -> None:
        mask = np.asarray(self.mask, dtype=bool)
        if mask.ndim != 2:
            raise ConfigurationError(f"mask must be 2-D, got shape {mask.shape}")
        object.__setattr__(self, "mask", mask)
        if self.threshold_db < 0:
            raise ConfigurationError(
                f"threshold_db must be >= 0, got {self.threshold_db}"
            )

    @property
    def area(self) -> int:
        """Number of candidate regions (the paper's map 'area')."""
        return int(self.mask.sum())


def rssi_deviations(
    virtual_rssi: np.ndarray, tracking_rssi: Sequence[float]
) -> np.ndarray:
    """|virtual - tracking| per reader: shape ``(K, v_rows, v_cols)``.

    ``virtual_rssi`` is the stacked per-reader interpolation output
    ``(K, v_rows, v_cols)``; ``tracking_rssi`` the tracking tag's K
    readings. This deviation tensor is the single input of both the
    threshold selection and the map construction.
    """
    v = np.asarray(virtual_rssi, dtype=np.float64)
    t = np.asarray(tracking_rssi, dtype=np.float64)
    if v.ndim != 3:
        raise ConfigurationError(
            f"virtual_rssi must have shape (K, v_rows, v_cols), got {v.shape}"
        )
    if t.shape != (v.shape[0],):
        raise ConfigurationError(
            f"tracking_rssi shape {t.shape} mismatches {v.shape[0]} readers"
        )
    return np.abs(v - t[:, np.newaxis, np.newaxis])


def build_proximity_maps(
    deviations: np.ndarray, thresholds: Sequence[float] | float
) -> list[ProximityMap]:
    """Build one map per reader from the deviation tensor.

    ``thresholds`` may be a scalar (the paper ultimately uses one shared
    threshold) or one value per reader (intermediate stages of the
    adaptive reduction).
    """
    dev = np.asarray(deviations, dtype=np.float64)
    if dev.ndim != 3:
        raise ConfigurationError(
            f"deviations must have shape (K, v_rows, v_cols), got {dev.shape}"
        )
    k = dev.shape[0]
    thr = np.broadcast_to(np.asarray(thresholds, dtype=np.float64), (k,))
    if np.any(thr < 0):
        raise ConfigurationError("thresholds must be non-negative")
    finite = np.isfinite(dev)
    maps: list[ProximityMap] = []
    for i in range(k):
        if finite[i].all():
            mask = dev[i] <= thr[i]
        else:
            # Masked deviations: only finite entries can qualify.
            mask = np.zeros(dev.shape[1:], dtype=bool)
            sel = finite[i]
            mask[sel] = dev[i][sel] <= thr[i]
        maps.append(
            ProximityMap(mask=mask, threshold_db=float(thr[i]), reader_index=i)
        )
    return maps
