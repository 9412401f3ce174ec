"""The central middleware server.

The paper (§3.2): "The information of tags received by readers is
gathered to a central processing server … through the software middleware
program, we can directly obtain the useful information … including the
tag ID, the reader ID, and RSSI values."

:class:`MiddlewareServer` collects :class:`~repro.hardware.readers.ReadingRecord`
streams and maintains, per (reader, tag), a temporally smoothed RSSI
estimate. Smoothing is the designed defence against per-reading fading
and transient disturbances (§4.1): a sliding-window mean (``window=1``
serves the latest reading unsmoothed). :meth:`snapshot` assembles the
consistent :class:`~repro.types.TrackingReading` an estimator consumes,
enforcing freshness so a tag that stopped beaconing (dead battery, left
the area) is reported missing rather than silently stale.

Partial input: the default (strict) snapshot raises on any missing
series — bit-identical to the original behaviour. With
``allow_partial=True`` the middleware instead returns a *masked*
reading: readers with no fresh tracking-tag value are absent, missing
reference values become NaN, and ``TrackingReading.masked`` flags the
degradation so quorum-aware estimators can decide what survives.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ..exceptions import ConfigurationError, ReadingError
from ..types import TrackingReading
from .readers import ReadingRecord

__all__ = ["SmoothingSpec", "MiddlewareServer"]


@dataclass(frozen=True)
class SmoothingSpec:
    """Temporal smoothing configuration.

    Parameters
    ----------
    window:
        Each (reader, tag) value is the mean of its last ``window``
        readings; 1 means no smoothing.
    max_age_s:
        A (reader, tag) series with no reading newer than this is treated
        as missing at snapshot time (None disables the freshness check).
    """

    window: int = 5
    max_age_s: float | None = 30.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigurationError(f"window must be >= 1, got {self.window}")
        if self.max_age_s is not None and self.max_age_s <= 0:
            raise ConfigurationError(f"max_age_s must be positive, got {self.max_age_s}")


class _Series:
    """Smoothed RSSI state for one (reader, tag) pair."""

    __slots__ = ("history", "last_time", "_window_cache")

    def __init__(self, window: int):
        self.history: deque[float] = deque(maxlen=window)
        self.last_time: float = -np.inf
        self._window_cache: float | None = None

    def update(self, rssi: float, time_s: float) -> None:
        self.history.append(rssi)
        self._window_cache = None
        self.last_time = time_s

    def value(self) -> float:
        if not self.history:
            raise ReadingError("series has no readings")
        # Memoized between ingests: every snapshot (and the calibration
        # loop's reference sweep) re-reads each series several times per
        # tick.
        if self._window_cache is None:
            self._window_cache = float(np.mean(self.history))
        return self._window_cache


class MiddlewareServer:
    """Collects reading records and produces estimator-ready snapshots.

    Parameters
    ----------
    reader_ids:
        Ordered reader identifiers; this order defines the row order of
        every snapshot's RSSI matrices.
    reference_tags:
        Mapping of reference tag id -> known ``(x, y)`` position; the
        iteration order defines the reference-column order of snapshots.
    smoothing:
        Temporal smoothing configuration.
    """

    def __init__(
        self,
        reader_ids: Iterable[str],
        reference_tags: Mapping[str, tuple[float, float]],
        smoothing: SmoothingSpec | None = None,
        tracking_smoothing: SmoothingSpec | None = None,
    ):
        self.reader_ids = tuple(reader_ids)
        if not self.reader_ids:
            raise ConfigurationError("need at least one reader id")
        if len(set(self.reader_ids)) != len(self.reader_ids):
            raise ConfigurationError("reader ids must be unique")
        self.reference_ids = tuple(reference_tags.keys())
        if not self.reference_ids:
            raise ConfigurationError("need at least one reference tag")
        self.reference_positions = np.array(
            [reference_tags[t] for t in self.reference_ids], dtype=np.float64
        )
        self._reference_id_set = frozenset(self.reference_ids)
        self.smoothing = smoothing or SmoothingSpec()
        # Reference tags are static, so deep smoothing is free accuracy;
        # tracking tags move, so their series may want a shorter memory.
        # Default: same smoothing for both.
        self.tracking_smoothing = tracking_smoothing or self.smoothing
        self._series: dict[tuple[str, str], _Series] = {}
        self._records_ingested = 0
        self._frame_sources: dict[str, object] = {}

    @property
    def records_ingested(self) -> int:
        return self._records_ingested

    # -- frame accounting ----------------------------------------------------

    def register_frame_source(self, reader: object) -> None:
        """Attach a per-reader frame counter source.

        ``reader`` is anything with ``reader_id``, ``frames_received``
        and ``frames_dropped`` attributes (a
        :class:`~repro.hardware.readers.Reader`). The simulator registers
        its readers automatically so detection-floor drops — tracked by
        the readers but previously invisible from the middleware — are
        observable here and exportable by the service metrics registry.
        """
        reader_id = getattr(reader, "reader_id", None)
        if reader_id not in self.reader_ids:
            raise ConfigurationError(
                f"cannot register frame source for unknown reader {reader_id!r}"
            )
        self._frame_sources[reader_id] = reader

    def frame_stats(self) -> dict[str, dict[str, int]]:
        """Per-reader ``{"received": n, "dropped": n}`` frame counters.

        Readers without a registered source report zeros (the counters
        live on the reader objects; a hand-fed middleware has none).
        """
        out: dict[str, dict[str, int]] = {}
        for reader_id in self.reader_ids:
            source = self._frame_sources.get(reader_id)
            out[reader_id] = {
                "received": int(getattr(source, "frames_received", 0) or 0),
                "dropped": int(getattr(source, "frames_dropped", 0) or 0),
            }
        return out

    def _spec_for(self, tag_id: str) -> SmoothingSpec:
        return (
            self.smoothing
            if tag_id in self._reference_id_set
            else self.tracking_smoothing
        )

    def ingest(self, record: ReadingRecord) -> None:
        """Accept one reading record from a reader."""
        if record.reader_id not in self.reader_ids:
            raise ReadingError(f"unknown reader id {record.reader_id!r}")
        key = (record.reader_id, record.tag_id)
        spec = self._spec_for(record.tag_id)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _Series(spec.window)
        series.update(record.rssi_dbm, record.time_s)
        self._records_ingested += 1

    def _smoothed(self, reader_id: str, tag_id: str, now_s: float) -> float | None:
        series = self._series.get((reader_id, tag_id))
        if series is None or not series.history:
            return None
        spec = self._spec_for(tag_id)
        max_age = spec.max_age_s
        if max_age is not None and now_s - series.last_time > max_age:
            return None
        return series.value()

    def snapshot(
        self,
        tracking_tag_id: str,
        now_s: float,
        *,
        allow_partial: bool = False,
    ) -> TrackingReading:
        """Assemble the localization input for one tracking tag.

        Strict mode (the default) raises
        :class:`~repro.exceptions.ReadingError` if any reader lacks a
        fresh reading of the tracking tag or of any reference tag —
        estimators require a complete matrix. (Readers that miss weak
        frames produce exactly this error; callers decide whether to
        retry after more simulation time or drop the reader via
        :meth:`TrackingReading.subset_readers`.)

        With ``allow_partial=True`` the middleware degrades instead of
        refusing: readers with no fresh tracking-tag value are *absent*
        from the returned reading, missing reference values become NaN,
        and the reading carries ``masked=True`` whenever anything was
        missing. When every series is fresh the result is bit-identical
        to the strict snapshot. Raises :class:`ReadingError` only when
        *no* reader has a fresh tracking-tag value.
        """
        if not allow_partial:
            k = len(self.reader_ids)
            n = len(self.reference_ids)
            ref = np.empty((k, n))
            trk = np.empty(k)
            for i, reader_id in enumerate(self.reader_ids):
                t_val = self._smoothed(reader_id, tracking_tag_id, now_s)
                if t_val is None:
                    raise ReadingError(
                        f"reader {reader_id!r} has no fresh reading of tracking "
                        f"tag {tracking_tag_id!r} at t={now_s:.1f}s"
                    )
                trk[i] = t_val
                for j, ref_id in enumerate(self.reference_ids):
                    r_val = self._smoothed(reader_id, ref_id, now_s)
                    if r_val is None:
                        raise ReadingError(
                            f"reader {reader_id!r} has no fresh reading of "
                            f"reference tag {ref_id!r} at t={now_s:.1f}s"
                        )
                    ref[i, j] = r_val
            return TrackingReading(
                reference_rssi=ref,
                tracking_rssi=trk,
                reference_positions=self.reference_positions,
                reader_ids=self.reader_ids,
                tag_id=tracking_tag_id,
                timestamp=now_s,
            )

        surviving: list[int] = []
        trk_vals: list[float] = []
        rows: list[np.ndarray] = []
        missing_refs = 0
        for i, reader_id in enumerate(self.reader_ids):
            t_val = self._smoothed(reader_id, tracking_tag_id, now_s)
            if t_val is None:
                continue  # the whole reader is absent from this snapshot
            row = np.empty(len(self.reference_ids))
            for j, ref_id in enumerate(self.reference_ids):
                r_val = self._smoothed(reader_id, ref_id, now_s)
                if r_val is None:
                    row[j] = np.nan
                    missing_refs += 1
                else:
                    row[j] = r_val
            surviving.append(i)
            trk_vals.append(t_val)
            rows.append(row)
        if not surviving:
            raise ReadingError(
                f"no reader has a fresh reading of tracking tag "
                f"{tracking_tag_id!r} at t={now_s:.1f}s"
            )
        masked = missing_refs > 0 or len(surviving) < len(self.reader_ids)
        return TrackingReading(
            reference_rssi=np.vstack(rows),
            tracking_rssi=np.asarray(trk_vals),
            reference_positions=self.reference_positions,
            reader_ids=tuple(self.reader_ids[i] for i in surviving),
            tag_id=tracking_tag_id,
            timestamp=now_s,
            masked=masked,
        )

    def reference_matrix(self, now_s: float) -> np.ndarray:
        """Smoothed reference-tag RSSI as one ``(K, n_refs)`` matrix.

        Row order is :attr:`reader_ids`, column order
        :attr:`reference_ids` — the same layout as a snapshot's
        ``reference_rssi``. Missing or stale series are NaN. This is the
        calibration loop's per-tick observation: reference tags sit at
        known positions, so the difference between this matrix and a
        clean baseline is pure calibration error plus noise
        (:mod:`repro.calibration`).
        """
        out = np.full(
            (len(self.reader_ids), len(self.reference_ids)), np.nan
        )
        for i, reader_id in enumerate(self.reader_ids):
            for j, ref_id in enumerate(self.reference_ids):
                value = self._smoothed(reader_id, ref_id, now_s)
                if value is not None:
                    out[i, j] = value
        return out

    def coverage(self, now_s: float) -> dict[str, float]:
        """Fraction of fresh (reader, reference-tag) series per reader.

        Diagnostic used by examples to decide the warm-up time before the
        first snapshot. A deployment with zero reference tags (possible
        for subclasses or hand-built servers, though the constructor
        requires at least one) reports vacuous full coverage — there is
        nothing left to wait for — rather than dividing by zero.
        """
        n_refs = len(self.reference_ids)
        if n_refs == 0:
            return {reader_id: 1.0 for reader_id in self.reader_ids}
        out = {}
        for reader_id in self.reader_ids:
            fresh = sum(
                1
                for ref_id in self.reference_ids
                if self._smoothed(reader_id, ref_id, now_s) is not None
            )
            out[reader_id] = fresh / n_refs
        return out

    def reader_freshness(self, now_s: float) -> dict[str, float]:
        """Fresh fraction of reference-tag series per reader.

        The service health tracker's input; the same fractions as
        :meth:`coverage`.
        """
        return self.coverage(now_s)
