"""Spatially-correlated log-normal shadowing fields.

Shadowing (slow fading) is the position-dependent deviation from the mean
path loss caused by the large-scale layout: furniture, people, wall
texture. Critically it is *spatially correlated* — nearby positions see
similar deviations (Gudmundson's classical measurement: exponential
autocorrelation with a decorrelation distance of metres indoors). This
correlation is the physical reason reference tags work at all: a reference
tag 30 cm from the tracking tag experiences nearly the same shadowing, so
comparing RSSI cancels it.

Implementation: per reader we synthesize a Gaussian random field on a
padded lattice covering the room by smoothing white noise with a Gaussian
kernel whose width matches the requested correlation length, re-normalize
to the target variance, and evaluate off-lattice positions by bilinear
interpolation. The field is a deterministic function of the (seed, reader)
pair, so reference tags and the tracking tag always see one consistent
world.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.interpolate import RegularGridInterpolator

from ..exceptions import ChannelError
from ..geometry.rooms import Room
from ..utils.validation import ensure_non_negative, ensure_positive

__all__ = ["ShadowingSpec", "ShadowingField"]


@dataclass(frozen=True)
class ShadowingSpec:
    """Parameters of a shadowing field.

    Parameters
    ----------
    sigma_db:
        Standard deviation of the shadowing in dB (0 disables shadowing).
    correlation_length_m:
        Distance at which the field decorrelates (Gudmundson d_corr).
    resolution_m:
        Lattice pitch used to synthesize the field; defaults to a quarter
        of the correlation length, capped for memory.
    padding_m:
        Extra margin around the room so queries slightly outside the
        bounds (readers, Tag 9) remain inside the lattice.
    common_fraction:
        Fraction (by amplitude, in [0, 1]) of the field that is *shared*
        across all readers. Physical shadowing comes largely from the
        environment itself — walls, furniture, absorbing clutter around
        the tag — which attenuates the tag's emissions towards *every*
        reader alike; only part of the deviation is reader-specific
        (antenna aspect, near-reader obstructions). A high common
        fraction makes the K-reader RSSI map fold (distinct positions
        with near-identical vectors), which is what degrades LANDMARC's
        neighbour selection in cluttered rooms. Total per-reader variance
        stays ``sigma_db**2`` regardless of the split.
    """

    sigma_db: float = 2.0
    correlation_length_m: float = 2.0
    resolution_m: float | None = None
    padding_m: float = 3.0
    common_fraction: float = 0.0

    def __post_init__(self) -> None:
        ensure_non_negative(self.sigma_db, "sigma_db")
        ensure_positive(self.correlation_length_m, "correlation_length_m")
        ensure_non_negative(self.padding_m, "padding_m")
        if self.resolution_m is not None:
            ensure_positive(self.resolution_m, "resolution_m")
        if not (0.0 <= self.common_fraction <= 1.0):
            raise ValueError(
                f"common_fraction must be in [0, 1], got {self.common_fraction}"
            )

    @property
    def effective_resolution_m(self) -> float:
        if self.resolution_m is not None:
            return self.resolution_m
        return max(self.correlation_length_m / 4.0, 0.05)


class ShadowingField:
    """One reader's frozen shadowing field over a room.

    Parameters
    ----------
    room:
        Defines the spatial extent of the field.
    spec:
        Field statistics.
    rng:
        Source of randomness; the field is fully drawn at construction and
        evaluation is deterministic afterwards.
    """

    def __init__(self, room: Room, spec: ShadowingSpec, rng: np.random.Generator):
        self.room = room
        self.spec = spec
        xmin, ymin, xmax, ymax = room.bounds
        pad = spec.padding_m
        res = spec.effective_resolution_m
        self._xs = np.arange(xmin - pad, xmax + pad + res, res)
        self._ys = np.arange(ymin - pad, ymax + pad + res, res)
        if self._xs.size < 2 or self._ys.size < 2:
            raise ChannelError("shadowing lattice degenerate; room too small")
        if spec.sigma_db == 0.0:
            field = np.zeros((self._ys.size, self._xs.size))
        else:
            white = rng.standard_normal((self._ys.size, self._xs.size))
            # A Gaussian kernel with sigma = d_corr / res lattice cells gives
            # an autocorrelation length of roughly d_corr in metres.
            sigma_cells = spec.correlation_length_m / res
            field = ndimage.gaussian_filter(white, sigma=sigma_cells, mode="reflect")
            std = field.std()
            if std <= 0:
                raise ChannelError("shadowing field collapsed to a constant")
            field = field * (spec.sigma_db / std)
        self._interp = RegularGridInterpolator(
            (self._ys, self._xs),
            field,
            method="linear",
            bounds_error=False,
            fill_value=None,  # linear extrapolation beyond the padded lattice
        )

    def value_at(self, positions: np.ndarray) -> np.ndarray:
        """Shadowing offset (dB) at each ``(x, y)`` row of ``positions``.

        Accepts shape ``(n, 2)`` or a single ``(2,)`` point; returns shape
        ``(n,)`` or a scalar array respectively.
        """
        pts = np.asarray(positions, dtype=np.float64)
        single = pts.ndim == 1
        if single:
            pts = pts[np.newaxis, :]
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ChannelError(f"positions must have shape (n, 2), got {pts.shape}")
        vals = self._interp(pts[:, ::-1])  # interpolator wants (y, x)
        return vals[0] if single else vals
