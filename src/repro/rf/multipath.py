"""Image-method multipath: deterministic standing-wave fading from walls.

In a closed room, the signal arriving at the reader is the phasor sum of
the direct ray and rays reflected off walls. Because path-length
differences of half a wavelength flip the phase, the received power as a
function of *position* exhibits peaks and nulls on a sub-metre scale —
the "severe radio signal multi-path effects" that the paper identifies as
the reason LANDMARC degrades in its closed Env3.

We model this with the classical image method: a first-order reflection
off wall W is equivalent to a direct ray from the *image* of the reader
mirrored across W, attenuated by the wall's reflectivity. Second-order
reflections (images of images) are supported with an approximate validity
test. The result is a deterministic, position-dependent *excess gain*
in dB relative to the direct-path-only power, which the channel adds on
top of the mean path loss.

Everything is vectorized over tag positions; the reader images are
precomputed once per reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ChannelError
from ..geometry.rooms import Room
from ..geometry.vector import Segment, reflect_point
from ..utils.validation import ensure_positive

__all__ = ["MultipathSpec", "MultipathModel"]


@dataclass(frozen=True)
class MultipathSpec:
    """Configuration of the image-method model.

    Parameters
    ----------
    max_reflections:
        0 disables multipath entirely; 1 uses single-bounce images;
        2 adds double-bounce images (with an approximate validity test).
    wavelength_m:
        Carrier wavelength. RF Code active tags operate at 303.8 MHz,
        i.e. roughly 0.99 m.
    amplitude_gamma:
        Path-loss exponent used for the *relative* per-ray amplitudes
        (amplitude ~ d^(-gamma/2)).
    coherence:
        Fraction of the interference cross-terms retained, in [0, 1].
        A reader reports RSSI integrated over a whole beacon, during
        which tag orientation wobble, oscillator drift between beacons
        and moving scatterers partially decorrelate the specular phases;
        the *reported* power is therefore between the fully coherent
        phasor sum (coherence=1, deep sub-wavelength fringes) and the
        incoherent power sum (coherence=0, smooth). Calibrated per
        environment.
    min_excess_db, max_excess_db:
        Clamp on the excess gain; a perfect null would otherwise send the
        dB value to -infinity, which no real receiver reports.
    """

    max_reflections: int = 1
    wavelength_m: float = 0.99
    amplitude_gamma: float = 2.0
    coherence: float = 0.5
    min_excess_db: float = -25.0
    max_excess_db: float = 10.0

    def __post_init__(self) -> None:
        if self.max_reflections not in (0, 1, 2):
            raise ChannelError(
                f"max_reflections must be 0, 1 or 2, got {self.max_reflections}"
            )
        ensure_positive(self.wavelength_m, "wavelength_m")
        ensure_positive(self.amplitude_gamma, "amplitude_gamma")
        if not (0.0 <= self.coherence <= 1.0):
            raise ChannelError(
                f"coherence must be in [0, 1], got {self.coherence}"
            )
        if not self.min_excess_db < self.max_excess_db:
            raise ChannelError("min_excess_db must be below max_excess_db")

    @property
    def enabled(self) -> bool:
        return self.max_reflections > 0


def _side_sign(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sign of the cross product (b-a) x (points-a) for each point row."""
    ab = b - a
    ap = points - a[np.newaxis, :]
    return np.sign(ab[0] * ap[:, 1] - ab[1] * ap[:, 0])


def _segment_crosses_wall(
    starts: np.ndarray, end: np.ndarray, wall: Segment
) -> np.ndarray:
    """Vectorized: does the segment from each start to ``end`` cross ``wall``?

    Standard orientation test. Touching endpoints count as crossing,
    which is the conservative choice for reflection validity.
    """
    a = np.asarray(wall.a, dtype=np.float64)
    b = np.asarray(wall.b, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    s1 = _side_sign(starts, a, b)
    s2 = _side_sign(end[np.newaxis, :], a, b)[0]
    opposite_wall_sides = s1 * s2 <= 0
    # Both wall endpoints must straddle the start->end line as well.
    d = end[np.newaxis, :] - starts  # (n, 2)
    da = a[np.newaxis, :] - starts
    db = b[np.newaxis, :] - starts
    ca = d[:, 0] * da[:, 1] - d[:, 1] * da[:, 0]
    cb = d[:, 0] * db[:, 1] - d[:, 1] * db[:, 0]
    return opposite_wall_sides & (ca * cb <= 0)


class MultipathModel:
    """Excess multipath gain for one room, evaluated per reader.

    The model enumerates reflected images of the reader across every
    reflective wall (once or twice per :class:`MultipathSpec`), and for a
    batch of tag positions computes

    ``excess_db = 20 log10 |sum_i (A_i / A_0) e^{-jk d_i}|``

    where path 0 is the direct ray. Through-wall penetration losses of the
    *direct* ray are part of ``A_0`` so heavily obstructed direct paths
    correctly let reflections dominate; penetration losses along reflected
    rays are neglected (documented simplification).
    """

    def __init__(self, room: Room, spec: MultipathSpec):
        self.room = room
        self.spec = spec
        self._images: list[tuple[np.ndarray, float, Segment]] = []

    def prepare_reader(
        self,
        reader_pos: Sequence[float],
        wall_phases: Sequence[float],
    ) -> "_ReaderImages":
        """Precompute the image set for one reader position.

        ``wall_phases`` supplies one reflection phase offset (radians) per
        reflective wall — the electrical phase shift of the reflection,
        which depends on wall material and surface detail that the
        geometric model cannot know. The channel draws these once per
        seed, so different seeds realize different (but frozen) fringe
        patterns, exactly like re-running the testbed in a rearranged
        room. All zeros is the ideal geometric phase.
        """
        return _ReaderImages(
            self, np.asarray(reader_pos, dtype=np.float64), wall_phases
        )


class _ReaderImages:
    """Image set of one reader; does the vectorized phasor summation."""

    def __init__(
        self,
        model: MultipathModel,
        reader_pos: np.ndarray,
        wall_phases: Sequence[float],
    ):
        self.model = model
        self.reader_pos = reader_pos
        spec = model.spec
        walls = model.room.reflective_walls
        phases = [float(p) for p in wall_phases]
        if len(phases) != len(walls):
            raise ChannelError(
                f"{len(phases)} wall phases supplied for "
                f"{len(walls)} reflective walls"
            )
        # Each image: (position, amplitude factor, validity wall, phase).
        self.images: list[tuple[np.ndarray, float, Segment, float]] = []
        if spec.max_reflections >= 1:
            for wall, phase in zip(walls, phases):
                img = np.asarray(
                    reflect_point(reader_pos, wall.segment), dtype=np.float64
                )
                self.images.append((img, wall.reflectivity, wall.segment, phase))
            if spec.max_reflections >= 2:
                for w1, p1 in zip(walls, phases):
                    img1 = np.asarray(
                        reflect_point(reader_pos, w1.segment), dtype=np.float64
                    )
                    for w2, p2 in zip(walls, phases):
                        if w2 is w1:
                            continue
                        img2 = np.asarray(
                            reflect_point(img1, w2.segment), dtype=np.float64
                        )
                        self.images.append(
                            (
                                img2,
                                w1.reflectivity * w2.reflectivity,
                                w2.segment,
                                p1 + p2,
                            )
                        )

    def excess_gain_db(
        self,
        positions: np.ndarray,
        *,
        direct_attenuation_db: np.ndarray | None = None,
    ) -> np.ndarray:
        spec = self.model.spec
        pts = np.asarray(positions, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[np.newaxis, :]
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ChannelError(f"positions must have shape (n, 2), got {pts.shape}")
        n = pts.shape[0]
        if not spec.enabled or not self.images:
            return np.zeros(n)

        k = 2.0 * np.pi / spec.wavelength_m
        half_gamma = spec.amplitude_gamma / 2.0

        diff = pts - self.reader_pos[np.newaxis, :]
        d0 = np.maximum(np.sqrt(np.einsum("ij,ij->i", diff, diff)), 1e-3)
        if direct_attenuation_db is None:
            direct_attenuation_db = self.model.room.crossing_attenuation_db(
                pts, self.reader_pos
            )
        a0 = d0**-half_gamma * 10.0 ** (-np.asarray(direct_attenuation_db) / 20.0)
        a0 = np.maximum(a0, 1e-12)
        field = a0 * np.exp(-1j * k * d0)
        power_incoherent = a0**2

        for img, reflectivity, wall_seg, phase in self.images:
            di_vec = pts - img[np.newaxis, :]
            di = np.maximum(np.sqrt(np.einsum("ij,ij->i", di_vec, di_vec)), 1e-3)
            valid = _segment_crosses_wall(pts, img, wall_seg)
            amp = np.where(valid, reflectivity * di**-half_gamma, 0.0)
            field = field + amp * np.exp(-1j * (k * di + phase))
            power_incoherent = power_incoherent + amp**2

        power_coherent = np.abs(field) ** 2
        power = (
            spec.coherence * power_coherent
            + (1.0 - spec.coherence) * power_incoherent
        )
        excess = 10.0 * np.log10(np.maximum(power / a0**2, 1e-18))
        return np.clip(excess, spec.min_excess_db, spec.max_excess_db)
