"""RF interference among densely packed tags (paper §4.1, Fig. 4).

The paper observes that active tags placed at the same spot *one at a
time* report nearly identical RSSI, but more than ~10 tags packed
together interfere: their beacon collisions and mutual detuning spread
the reported RSSI over tens of dB (Fig. 4 shows a snapshot spanning
roughly -70 to -100 dBm for 20 co-located tags that individually read
about -75 dBm).

Model: for each tag we count its neighbours within ``radius_m``. Below
``free_neighbour_count`` neighbours the tag is unaffected. Beyond it,
the tag suffers (a) a systematic per-tag offset drawn once (detuning /
shadowing by neighbouring tag bodies) and (b) extra per-reading noise
(collision losses), both growing with the amount of crowding until
saturation. Offsets are negative-leaning: interference destroys power
more often than it creates it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from ..utils.arrays import as_points, pairwise_distances
from ..utils.validation import ensure_non_negative, ensure_positive, ensure_positive_int

__all__ = ["TagInterferenceModel"]


@dataclass(frozen=True)
class TagInterferenceModel:
    """Density-dependent RSSI corruption.

    Parameters
    ----------
    radius_m:
        Tags closer than this count as mutual neighbours.
    free_neighbour_count:
        Up to this many neighbours causes no interference (the paper
        reports trouble beyond roughly 10 co-located tags).
    saturation_neighbour_count:
        Crowding level at which the corruption reaches full strength.
    max_offset_db:
        Scale of the systematic per-tag offset at saturation (dB).
    max_jitter_db:
        Scale of the extra per-reading noise at saturation (dB).
    """

    radius_m: float = 0.5
    free_neighbour_count: int = 9
    saturation_neighbour_count: int = 19
    max_offset_db: float = 12.0
    max_jitter_db: float = 6.0

    def __post_init__(self) -> None:
        ensure_positive(self.radius_m, "radius_m")
        ensure_positive_int(self.free_neighbour_count, "free_neighbour_count", minimum=0)
        ensure_positive_int(
            self.saturation_neighbour_count, "saturation_neighbour_count", minimum=1
        )
        if self.saturation_neighbour_count <= self.free_neighbour_count:
            raise ConfigurationError(
                "saturation_neighbour_count must exceed free_neighbour_count"
            )
        ensure_non_negative(self.max_offset_db, "max_offset_db")
        ensure_non_negative(self.max_jitter_db, "max_jitter_db")

    def neighbour_counts(self, positions: np.ndarray) -> np.ndarray:
        """Number of *other* tags within ``radius_m`` of each tag."""
        pts = as_points(positions, "positions")
        d = pairwise_distances(pts, pts)
        within = d <= self.radius_m
        return within.sum(axis=1) - 1  # exclude self

    def severity(self, positions: np.ndarray) -> np.ndarray:
        """Interference severity in [0, 1] for each tag."""
        counts = self.neighbour_counts(positions)
        span = self.saturation_neighbour_count - self.free_neighbour_count
        return np.clip((counts - self.free_neighbour_count) / span, 0.0, 1.0)

    def systematic_offsets_db(
        self, positions: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-tag quasi-static offsets (drawn once per deployment)."""
        sev = self.severity(positions)
        n = sev.shape[0]
        # Negative-leaning: mean -0.75*scale, sd 0.5*scale per unit severity.
        draw = rng.standard_normal(n) * 0.5 - 0.75
        return sev * self.max_offset_db * draw

    def reading_jitter_db(
        self, positions: np.ndarray, rng: np.random.Generator, n_reads: int = 1
    ) -> np.ndarray:
        """Extra per-reading noise, shape ``(n_tags, n_reads)``."""
        if n_reads < 1:
            raise ConfigurationError(f"n_reads must be >= 1, got {n_reads}")
        sev = self.severity(positions)
        noise = rng.standard_normal((sev.shape[0], n_reads))
        return sev[:, np.newaxis] * self.max_jitter_db * noise

    def corrupt(
        self,
        clean_rssi: np.ndarray,
        positions: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Apply both corruption terms to a vector of clean RSSI values."""
        rssi = np.asarray(clean_rssi, dtype=np.float64)
        pts = as_points(positions, "positions")
        if rssi.shape != (pts.shape[0],):
            raise ConfigurationError(
                f"clean_rssi shape {rssi.shape} mismatches {pts.shape[0]} positions"
            )
        out = rssi + self.systematic_offsets_db(pts, rng)
        out = out + self.reading_jitter_db(pts, rng, n_reads=1)[:, 0]
        return out
