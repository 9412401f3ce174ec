"""The composed RF channel.

:class:`RFChannel` glues the substrate models into the single object the
testbed simulator talks to. The decomposition follows standard channel
modelling practice:

``RSSI(reading) = pathloss(d) - wall_penetration + multipath_excess
                + shadowing(x, y) + fading(reading) + noise(reading)``

The first four terms form the *frozen spatial field*: a deterministic
function of position for a given seed (the "world"). The last two vary
per reading. This split matters for correctness of the reproduction:
reference tags and tracking tags must observe a *consistent* world —
that consistency is what LANDMARC and VIRE exploit — while repeated
readings must still scatter (Fig. 3's whiskers).

Readers are registered up front so each gets its own shadowing field and
precomputed multipath image set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..exceptions import ChannelError
from ..geometry.rooms import Room
from ..utils.arrays import as_points
from ..utils.rng import derive_rng
from .fading import FadingModel, RicianFading
from .multipath import MultipathModel, MultipathSpec, _ReaderImages
from .propagation import LogDistancePathLoss
from .shadowing import ShadowingField, ShadowingSpec

__all__ = ["RFChannel"]


@dataclass
class _ReaderState:
    position: np.ndarray
    shadowing: ShadowingField
    images: _ReaderImages


class RFChannel:
    """A frozen RF world over a room, queried per (reader, tag position).

    Parameters
    ----------
    room:
        Geometry: walls attenuate crossings and reflect multipath rays.
    reader_positions:
        ``(K, 2)`` coordinates of the readers. Fixed at construction.
    path_loss:
        Deterministic distance model (the default log-distance model
        when ``None``).
    shadowing:
        Spec of the per-reader correlated shadowing fields.
    multipath:
        Spec of the image-method model.
    fading:
        Per-reading fast fading model.
    noise_sigma_db:
        I.i.d. Gaussian measurement noise per reading (receiver noise,
        quantization of the dBm readout, ...).
    sensitivity_dbm:
        Readings are floored here — a receiver never reports power below
        its sensitivity.
    seed:
        Master seed of the frozen world. Two channels built with identical
        arguments produce identical mean fields.
    """

    def __init__(
        self,
        room: Room,
        reader_positions: Sequence[Sequence[float]],
        *,
        path_loss: LogDistancePathLoss | None = None,
        shadowing: ShadowingSpec | None = None,
        multipath: MultipathSpec | None = None,
        fading: FadingModel | None = None,
        noise_sigma_db: float = 0.8,
        sensitivity_dbm: float = -105.0,
        seed: int = 0,
    ):
        self.room = room
        self.path_loss = path_loss or LogDistancePathLoss()
        self.shadowing_spec = shadowing or ShadowingSpec()
        self.multipath_spec = multipath or MultipathSpec()
        self.fading: FadingModel = fading if fading is not None else RicianFading()
        if noise_sigma_db < 0:
            raise ChannelError(f"noise_sigma_db must be >= 0, got {noise_sigma_db}")
        self.noise_sigma_db = float(noise_sigma_db)
        self.sensitivity_dbm = float(sensitivity_dbm)
        self.seed = int(seed)

        positions = as_points(reader_positions, "reader_positions")
        if positions.shape[0] == 0:
            raise ChannelError("need at least one reader")
        self._multipath_model = MultipathModel(room, self.multipath_spec)

        # Split the shadowing variance into a component common to all
        # readers (the environment shadowing the tag itself) and
        # independent per-reader components; see ShadowingSpec docs.
        f = self.shadowing_spec.common_fraction
        self._common_shadowing: ShadowingField | None = None
        indiv_spec = replace(
            self.shadowing_spec,
            sigma_db=self.shadowing_spec.sigma_db * float(np.sqrt(1.0 - f * f)),
            common_fraction=0.0,
        )
        if f > 0.0 and self.shadowing_spec.sigma_db > 0.0:
            common_spec = replace(
                self.shadowing_spec,
                sigma_db=self.shadowing_spec.sigma_db * f,
                common_fraction=0.0,
            )
            self._common_shadowing = ShadowingField(
                room, common_spec, derive_rng(self.seed, "shadowing-common")
            )

        # One reflection phase offset per reflective wall, shared by all
        # readers (a property of the wall, not the receiver); redrawn per
        # seed so each seed is a different frozen fringe pattern.
        n_walls = len(room.reflective_walls)
        wall_phases = derive_rng(self.seed, "multipath-phases").uniform(
            0.0, 2.0 * np.pi, size=n_walls
        )

        self._readers: list[_ReaderState] = []
        for k, pos in enumerate(positions):
            shadow_rng = derive_rng(self.seed, "shadowing", k)
            self._readers.append(
                _ReaderState(
                    position=pos.copy(),
                    shadowing=ShadowingField(room, indiv_spec, shadow_rng),
                    images=self._multipath_model.prepare_reader(pos, wall_phases),
                )
            )

    # -- introspection ---------------------------------------------------

    @property
    def n_readers(self) -> int:
        return len(self._readers)

    @property
    def reader_positions(self) -> np.ndarray:
        """``(K, 2)`` array of reader coordinates (copy)."""
        return np.array([r.position for r in self._readers])

    def _reader(self, reader_index: int) -> _ReaderState:
        if not (0 <= reader_index < len(self._readers)):
            raise ChannelError(
                f"reader index {reader_index} out of range 0..{len(self._readers)-1}"
            )
        return self._readers[reader_index]

    # -- the frozen field ------------------------------------------------

    def mean_rssi(
        self, reader_index: int, positions: Sequence[Sequence[float]]
    ) -> np.ndarray:
        """Mean RSSI (dBm) of tags at ``positions`` seen by one reader.

        Deterministic: path loss + wall penetration + multipath excess +
        shadowing. Shape ``(n,)`` for input shape ``(n, 2)``.
        """
        return self._mean_rssi(
            self._reader(reader_index), as_points(positions, "positions")
        )

    def _mean_rssi(self, reader: _ReaderState, pts: np.ndarray) -> np.ndarray:
        """:meth:`mean_rssi` over already-validated ``(n, 2)`` positions."""
        diff = pts - reader.position[np.newaxis, :]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        rssi = np.asarray(self.path_loss.rssi(dist), dtype=np.float64)

        attenuation = self.room.crossing_attenuation_db(pts, reader.position)
        rssi = rssi - attenuation
        if self.multipath_spec.enabled:
            rssi = rssi + reader.images.excess_gain_db(
                pts, direct_attenuation_db=attenuation
            )
        rssi = rssi + reader.shadowing.value_at(pts)
        if self._common_shadowing is not None:
            rssi = rssi + self._common_shadowing.value_at(pts)
        return rssi

    # -- per-reading sampling ---------------------------------------------

    @property
    def normals_per_read(self) -> int:
        """Standard normals one reading draws: the fading model's, then
        one more for receiver noise when ``noise_sigma_db > 0``."""
        return self.fading.normals_per_read + (self.noise_sigma_db > 0)

    def _draw_reads(
        self,
        mean: np.ndarray,
        rng: np.random.Generator,
        n_reads: int,
        extra_attenuation_db: np.ndarray | float,
    ) -> np.ndarray:
        """``(K, n, n_reads)`` noisy readings around a ``(K, n)`` mean field.

        One ``standard_normal`` block per call. Row ``k`` holds reader
        ``k``'s fading normals in ``(n, n_reads, normals_per_read)``
        order, then its receiver-noise normals in ``(n, n_reads)`` order:
        exactly the stream K per-reader draws would consume, one reader
        after another.
        """
        if n_reads < 1:
            raise ChannelError(f"n_reads must be >= 1, got {n_reads}")
        n_rows, n = mean.shape
        centred = mean - np.asarray(extra_attenuation_db, dtype=np.float64)
        if centred.shape != mean.shape:
            raise ChannelError(
                f"extra_attenuation_db does not broadcast to {mean.shape}"
            )
        per_reader = n * n_reads
        f = self.fading.normals_per_read
        n_fading = per_reader * f
        noisy = self.noise_sigma_db > 0
        z = rng.standard_normal((n_rows, per_reader * self.normals_per_read))
        out = self.fading.db_from_normals(
            z[:, :n_fading].reshape(n_rows, n, n_reads, f)
        )
        out += centred[:, :, np.newaxis]
        if noisy:
            out += z[:, n_fading:].reshape(n_rows, n, n_reads) * self.noise_sigma_db
        return np.maximum(out, self.sensitivity_dbm, out=out)

    def sample_rssi(
        self,
        reader_index: int,
        positions: Sequence[Sequence[float]],
        rng: np.random.Generator,
        *,
        n_reads: int = 1,
        extra_attenuation_db: np.ndarray | float = 0.0,
    ) -> np.ndarray:
        """Draw ``n_reads`` noisy readings per tag position at one reader.

        Returns shape ``(n, n_reads)``. ``extra_attenuation_db``
        (broadcastable to ``(n,)``) lets the caller inject transient
        effects (human movement, interference offsets) computed elsewhere.
        """
        mean = self.mean_rssi(reader_index, positions)[np.newaxis, :]
        return self._draw_reads(mean, rng, n_reads, extra_attenuation_db)[0]

    def sample_rssi_matrix(
        self,
        positions: Sequence[Sequence[float]] | None,
        rng: np.random.Generator,
        *,
        n_reads: int = 1,
        mean: np.ndarray | None = None,
        extra_attenuation_db: np.ndarray | float = 0.0,
    ) -> np.ndarray:
        """Readings of every tag at every reader, averaged over ``n_reads``.

        Returns shape ``(K, n_tags)`` — the RSSI matrix the middleware
        hands to estimators. Averaging across reads emulates the
        middleware's temporal smoothing.

        ``mean`` is the caller's ``(K, n_tags)`` frozen field (from
        :meth:`mean_rssi_matrix` at the tags' positions); passing it
        skips the field computation, and ``positions`` must then be
        ``None`` — a field and positions together could disagree.
        ``m`` fields stacked row-wise, ``(m·K, n_tags)``, draw in stack
        order exactly what ``m`` calls would, and return ``(m·K,
        n_tags)``. ``extra_attenuation_db`` must broadcast to the
        field's shape.
        """
        if mean is None:
            mean = self.mean_rssi_matrix(positions)
        elif positions is not None:
            raise ChannelError(
                "pass positions or a mean field to sample_rssi_matrix, not both"
            )
        elif (
            mean.ndim != 2
            or mean.shape[0] == 0
            or mean.shape[0] % self.n_readers
        ):
            raise ChannelError(
                f"mean field must have shape (m*{self.n_readers}, n), "
                f"got {mean.shape}"
            )
        reads = self._draw_reads(mean, rng, n_reads, extra_attenuation_db)
        if n_reads == 1:
            return reads[:, :, 0]  # the mean of one read is that read
        return reads.mean(axis=2)

    def mean_rssi_matrix(self, positions: Sequence[Sequence[float]]) -> np.ndarray:
        """Frozen-field RSSI of every tag at every reader, ``(K, n_tags)``."""
        pts = as_points(positions, "positions")
        out = np.empty((self.n_readers, pts.shape[0]))
        for k, reader in enumerate(self._readers):
            out[k, :] = self._mean_rssi(reader, pts)
        return out
