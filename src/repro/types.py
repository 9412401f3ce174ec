"""Shared data types for readings and estimates.

The whole library converses in terms of two records:

* :class:`TrackingReading` — one localization input: the RSSI of the
  tracking tag and of every real reference tag, as seen by each reader.
  This is what the middleware hands to an estimator, and what both
  LANDMARC and VIRE consume.
* :class:`EstimateResult` — one localization output: the estimated
  coordinate plus optional diagnostics.

Estimators implement the :class:`Estimator` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from .exceptions import ConfigurationError, ReadingError

__all__ = [
    "FrozenPositions",
    "TrackingReading",
    "EstimateResult",
    "Estimator",
    "estimation_error",
]


class FrozenPositions(np.ndarray):
    """A reference-tag layout validated once and then made read-only.

    Built by :meth:`freeze`; the middleware freezes its layout at
    construction and hands the same array to every snapshot.
    :class:`TrackingReading` skips its per-reading finiteness check for
    a float64 instance that is not writeable: it was finite when frozen,
    and read-only data cannot have changed since. Results of arithmetic
    on it are writeable, so they are checked like any other array.
    """

    @classmethod
    def freeze(cls, positions) -> "FrozenPositions":
        """Validate ``positions`` as a finite float64 ``(n_refs, 2)``
        C-contiguous layout and return a read-only copy."""
        arr = np.array(positions, dtype=np.float64, order="C")
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ConfigurationError(
                f"reference positions must have shape (n_refs, 2), got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ConfigurationError("reference positions must be finite")
        arr.flags.writeable = False
        return arr.view(cls)


@dataclass(frozen=True)
class TrackingReading:
    """Per-reader RSSI snapshot used as the input of a location estimate.

    Parameters
    ----------
    reference_rssi:
        Array of shape ``(K, n_refs)``: RSSI (dBm) of each real reference
        tag as measured by each of the ``K`` readers.
    tracking_rssi:
        Array of shape ``(K,)``: RSSI (dBm) of the tracking tag at each
        reader.
    reference_positions:
        Array of shape ``(n_refs, 2)``: known coordinates (metres) of the
        reference tags, in the same order as the columns of
        ``reference_rssi``.
    reader_ids:
        Optional identifiers for the readers (defaults to ``0..K-1``).
    tag_id:
        Optional identifier of the tracking tag.
    timestamp:
        Optional simulation/wall-clock time of the snapshot (seconds).
    masked:
        ``True`` marks a *partial* reading assembled under degraded
        input: ``reference_rssi`` may contain NaN where a (reader,
        reference-tag) series was missing or stale, and readers may be
        absent entirely. Strict readings (``masked=False``, the default)
        keep the original all-finite validation, so pre-existing callers
        are untouched. ``tracking_rssi`` and ``reference_positions``
        must be finite in either mode.
    """

    reference_rssi: np.ndarray
    tracking_rssi: np.ndarray
    reference_positions: np.ndarray
    reader_ids: tuple[Any, ...] | None = None
    tag_id: Any = None
    timestamp: float | None = None
    masked: bool = False

    def __post_init__(self) -> None:
        ref = np.asarray(self.reference_rssi, dtype=np.float64)
        trk = np.asarray(self.tracking_rssi, dtype=np.float64)
        pos = self.reference_positions
        frozen = (
            type(pos) is FrozenPositions
            and pos.dtype == np.float64
            and not pos.flags.writeable
        )
        if not frozen:
            pos = np.asarray(pos, dtype=np.float64)
        object.__setattr__(self, "reference_rssi", ref)
        object.__setattr__(self, "tracking_rssi", trk)
        object.__setattr__(self, "reference_positions", pos)
        if ref.ndim != 2:
            raise ReadingError(
                f"reference_rssi must be 2-D (K, n_refs), got shape {ref.shape}"
            )
        if trk.ndim != 1:
            raise ReadingError(
                f"tracking_rssi must be 1-D (K,), got shape {trk.shape}"
            )
        if ref.shape[0] != trk.shape[0]:
            raise ReadingError(
                "reader count mismatch: reference_rssi has "
                f"{ref.shape[0]} readers, tracking_rssi has {trk.shape[0]}"
            )
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ReadingError(
                f"reference_positions must have shape (n_refs, 2), got {pos.shape}"
            )
        if pos.shape[0] != ref.shape[1]:
            raise ReadingError(
                "reference tag count mismatch: reference_rssi has "
                f"{ref.shape[1]} tags, reference_positions has {pos.shape[0]}"
            )
        if self.masked:
            # NaN marks a missing series; infinities are still corrupt data.
            if np.isinf(ref).any():
                raise ReadingError("reference_rssi contains infinite values")
        elif not np.isfinite(ref).all():
            raise ReadingError("reference_rssi contains non-finite values")
        if not np.isfinite(trk).all():
            raise ReadingError("tracking_rssi contains non-finite values")
        if not frozen and not np.isfinite(pos).all():
            raise ReadingError("reference_positions contains non-finite values")
        if self.reader_ids is not None:
            ids = tuple(self.reader_ids)
            if len(ids) != trk.shape[0]:
                raise ReadingError(
                    f"reader_ids has {len(ids)} entries for {trk.shape[0]} readers"
                )
            object.__setattr__(self, "reader_ids", ids)

    @property
    def n_readers(self) -> int:
        """Number of readers ``K`` in this snapshot."""
        return int(self.tracking_rssi.shape[0])

    @property
    def n_references(self) -> int:
        """Number of real reference tags in this snapshot."""
        return int(self.reference_rssi.shape[1])

    @property
    def reference_finite_mask(self) -> np.ndarray:
        """Boolean ``(K, n_refs)``: True where the reference RSSI is present."""
        return np.isfinite(self.reference_rssi)

    @property
    def reader_reference_coverage(self) -> np.ndarray:
        """Per-reader fraction of present reference values, shape ``(K,)``."""
        return self.reference_finite_mask.mean(axis=1)

    @property
    def is_complete(self) -> bool:
        """True when every reference value is present (masked or not)."""
        return not self.masked or bool(self.reference_finite_mask.all())

    def subset_readers(self, indices: Sequence[int]) -> "TrackingReading":
        """Return a new reading restricted to the given reader indices.

        Useful for reader-count ablations and for failure-injection tests
        (dropping a reader). Masked readings stay masked.
        """
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size == 0:
            raise ReadingError("cannot build a reading with zero readers")
        ids = None
        if self.reader_ids is not None:
            ids = tuple(self.reader_ids[int(i)] for i in idx)
        return TrackingReading(
            reference_rssi=self.reference_rssi[idx, :],
            tracking_rssi=self.tracking_rssi[idx],
            reference_positions=self.reference_positions,
            reader_ids=ids,
            tag_id=self.tag_id,
            timestamp=self.timestamp,
            masked=self.masked,
        )


@dataclass(frozen=True)
class EstimateResult:
    """The output of one location estimate.

    Attributes
    ----------
    position:
        Estimated ``(x, y)`` coordinate in metres.
    estimator:
        Short name of the estimator that produced this result.
    diagnostics:
        Free-form per-estimator diagnostics (selected cell count, threshold
        used, neighbour indices, ...). Never required for correctness.
    """

    position: tuple[float, float]
    estimator: str = ""
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    @property
    def x(self) -> float:
        return float(self.position[0])

    @property
    def y(self) -> float:
        return float(self.position[1])

    def error_to(self, true_position: Sequence[float]) -> float:
        """Euclidean estimation error ``e`` to the true coordinate (paper §4.3)."""
        return estimation_error(self.position, true_position)


def estimation_error(
    estimated: Sequence[float], true_position: Sequence[float]
) -> float:
    """Euclidean distance between an estimate and the ground-truth position.

    This is the paper's error metric ``e = sqrt((x-x0)^2 + (y-y0)^2)``.
    """
    est = np.asarray(estimated, dtype=np.float64)
    true = np.asarray(true_position, dtype=np.float64)
    if est.shape != (2,) or true.shape != (2,):
        raise ReadingError(
            f"positions must be 2-vectors, got shapes {est.shape} and {true.shape}"
        )
    return float(np.hypot(est[0] - true[0], est[1] - true[1]))


@runtime_checkable
class Estimator(Protocol):
    """Protocol implemented by every localization estimator in this package."""

    #: short human-readable name used in reports ("LANDMARC", "VIRE", ...)
    name: str

    def estimate(self, reading: TrackingReading) -> EstimateResult:
        """Estimate the tracking tag's position from one reading."""
        ...
