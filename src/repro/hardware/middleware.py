"""The central middleware server.

The paper (§3.2): "The information of tags received by readers is
gathered to a central processing server … through the software middleware
program, we can directly obtain the useful information … including the
tag ID, the reader ID, and RSSI values."

:class:`MiddlewareServer` collects :class:`~repro.hardware.readers.ReadingRecord`
streams and keeps, per (reader, tag), the mean of the last ``window``
RSSI readings — the defence against per-reading fading (§4.1);
``window=1`` serves the latest reading. :meth:`snapshot` assembles the
:class:`~repro.types.TrackingReading` an estimator consumes, enforcing
freshness so a tag that stopped beaconing is reported missing rather
than silently stale. The strict snapshot raises on any missing series;
``allow_partial=True`` returns a *masked* reading instead.

The series live in one column store. Series ``column * K + reader``
(reference tags first, in :attr:`reference_ids` order; tracking tags
appended on first sight) owns a row of the ``(C * K, W)`` window array
and an entry of the count, last-time and mean arrays. :meth:`ingest`
queues a record; the first read after it applies the queue. A reading
shifts its window left by one and lands last (a ring buffer would
change the bits: ``np.mean`` sums in index order), and the touched
means are recomputed, one ``np.mean(..., axis=1)`` per fill count. The
first read at a given (ingest generation, ``now_s``) computes every
series' freshness and the ``(K, n_refs)`` reference block; every
snapshot, :meth:`reference_matrix` and :meth:`coverage` call at that
instant slices them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ..exceptions import ConfigurationError, ReadingError
from ..types import TrackingReading
from ..utils.validation import ensure_positive, ensure_positive_int
from .readers import ReadingRecord

__all__ = ["SmoothingSpec", "MiddlewareServer"]


@dataclass(frozen=True)
class SmoothingSpec:
    """Temporal smoothing configuration.

    Parameters
    ----------
    window:
        Each (reader, tag) value is the mean of its last ``window``
        readings; 1 means no smoothing. Must be an integer.
    max_age_s:
        A (reader, tag) series with no reading newer than this is treated
        as missing at snapshot time (None disables the freshness check).
        Must be positive and finite.
    """

    window: int = 5
    max_age_s: float | None = 30.0

    def __post_init__(self) -> None:
        ensure_positive_int(self.window, "window")
        if self.max_age_s is not None:
            ensure_positive(self.max_age_s, "max_age_s")


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
    tracking_smoothing:
        Smoothing of tracking-tag series (default: ``smoothing``).
        Reference tags are static, so deep smoothing is free accuracy;
        tracking tags move, so their series may want a shorter memory.
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
        self.smoothing = smoothing or SmoothingSpec()
        self.tracking_smoothing = tracking_smoothing or self.smoothing
        self._rows = {r: i for i, r in enumerate(self.reader_ids)}
        self._columns = {t: j for j, t in enumerate(self.reference_ids)}
        spec, size = self.smoothing, len(self.reader_ids) * len(self.reference_ids)
        self._reference_series = size
        self._width = max(spec.window, self.tracking_smoothing.window)
        self._window = np.zeros((size, self._width))
        self._count = np.zeros(size, dtype=np.int64)
        self._last = np.zeros(size)
        self._mean = np.zeros(size)
        # Per series: the smoothing window and the freshness limit.
        self._limit = np.full(size, spec.window)
        self._max_age = np.full(size, spec.max_age_s or np.inf)
        self._unseen = np.zeros(len(self.reader_ids), dtype=bool)
        self._pending: list[float] = []  # (series, rssi, time) triples
        self._block_key: tuple[int, float] | None = None
        self._records_ingested = 0
        self._records_rejected = 0
        self._frame_sources: dict[str, object] = {}

    @property
    def records_ingested(self) -> int:
        return self._records_ingested

    @property
    def records_rejected(self) -> int:
        """Records dropped at ingest for a non-finite RSSI or time."""
        return self._records_rejected

    # -- frame accounting ----------------------------------------------------

    def register_frame_source(self, reader: object) -> None:
        """Attach a per-reader frame counter source.

        ``reader`` is anything with ``reader_id``, ``frames_received``
        and ``frames_dropped`` attributes (a
        :class:`~repro.hardware.readers.Reader`); the simulator registers
        its readers so detection-floor drops are observable here.
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

    # -- the column store ----------------------------------------------------

    def ingest(self, record: ReadingRecord) -> None:
        """Accept one reading record from a reader.

        Records with a non-finite RSSI or time are dropped and counted
        in :attr:`records_rejected`; an unknown reader raises.
        """
        row = self._rows.get(record.reader_id)
        if row is None:
            raise ReadingError(f"unknown reader id {record.reader_id!r}")
        rssi, time_s = record.rssi_dbm, record.time_s
        if not (math.isfinite(rssi) and math.isfinite(time_s)):
            self._records_rejected += 1
            return
        column = self._columns.setdefault(record.tag_id, len(self._columns))
        self._pending += (column * len(self.reader_ids) + row, rssi, time_s)
        self._records_ingested += 1

    def _apply_pending(self) -> None:
        ids = self._pending[::3]
        queued = np.array(self._pending).reshape(-1, 3)
        self._pending.clear()
        extra = len(self._columns) * len(self.reader_ids) - self._count.size
        if extra:  # tracking tags seen for the first time
            spec = self.tracking_smoothing
            self._window = np.pad(self._window, ((0, extra), (0, 0)))
            self._count, self._last, self._mean = (
                np.pad(a, (0, extra)) for a in (self._count, self._last, self._mean)
            )
            self._limit = np.append(self._limit, [spec.window] * extra)
            self._max_age = np.append(self._max_age, [spec.max_age_s or np.inf] * extra)
        # Round r applies every series' r-th queued reading, so no round
        # touches a series twice; usually each series queued one reading.
        rounds: list = [slice(None)]
        if len(set(ids)) < len(ids):
            rounds, seen = [], {}
            for index, key in enumerate(ids):
                r = seen[key] = seen.get(key, -1) + 1
                if r == len(rounds):
                    rounds.append([])
                rounds[r].append(index)
        series = np.array(ids, dtype=np.intp)
        for sel in rounds:
            s = series[sel]
            self._window[s, :-1] = self._window[s, 1:]
            self._window[s, -1] = queued[sel, 1]
            self._count[s] += 1
            self._last[s] = queued[sel, 2]
        touched = series[rounds[0]]
        fill = np.minimum(self._count[touched], self._limit[touched])
        for n in set(fill.tolist()):
            s = touched[fill == n]
            self._mean[s] = np.mean(self._window[s, self._width - n:], axis=1)

    def _block(self, now_s: float) -> np.ndarray:
        """Every series' freshness at ``now_s``; one gather an instant."""
        key = (self._records_ingested, now_s)
        if key != self._block_key:
            if self._pending:
                self._apply_pending()
            k, size = len(self.reader_ids), self._reference_series
            self._fresh = (self._count > 0) & ~(now_s - self._last > self._max_age)
            self._refs_fresh = self._fresh[:size].reshape(-1, k).T
            refs = self._mean[:size].reshape(-1, k).T
            self._refs = np.where(self._refs_fresh, refs, np.nan)
            self._refs_ok = self._refs_fresh.all(axis=1)
            self._complete = bool(self._refs_ok.all())
            self._block_key = key
        return self._fresh

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
        estimators require a complete matrix. The error names the first
        missing series in reader order, the tracking tag before the
        reference tags. (Readers that miss weak frames produce exactly
        this error; callers decide whether to retry after more
        simulation time or drop the reader via
        :meth:`TrackingReading.subset_readers`.)

        With ``allow_partial=True`` the middleware degrades instead of
        refusing: readers with no fresh tracking-tag value are *absent*
        from the returned reading, missing reference values become NaN,
        and the reading carries ``masked=True`` whenever anything was
        missing. When every series is fresh the result is bit-identical
        to the strict snapshot. Raises :class:`ReadingError` only when
        *no* reader has a fresh tracking-tag value.
        """
        fresh = self._block(now_s)
        k, column = len(self.reader_ids), self._columns.get(tracking_tag_id)
        series = None if column is None else slice(column * k, column * k + k)
        tracked = self._unseen if series is None else fresh[series]
        if self._complete and tracked.all():
            return TrackingReading(
                reference_rssi=self._refs.copy(),
                tracking_rssi=self._mean[series].copy(),
                reference_positions=self.reference_positions,
                reader_ids=self.reader_ids,
                tag_id=tracking_tag_id,
                timestamp=now_s,
            )
        if not allow_partial:
            i = int(np.argmin(tracked & self._refs_ok))
            missing = (
                f"tracking tag {tracking_tag_id!r}" if not tracked[i] else
                f"reference tag "
                f"{self.reference_ids[int(np.argmin(self._refs_fresh[i]))]!r}"
            )
            raise ReadingError(
                f"reader {self.reader_ids[i]!r} has no fresh reading of "
                f"{missing} at t={now_s:.1f}s"
            )
        surviving = np.flatnonzero(tracked)
        if not surviving.size:
            raise ReadingError(
                f"no reader has a fresh reading of tracking tag "
                f"{tracking_tag_id!r} at t={now_s:.1f}s"
            )
        return TrackingReading(
            reference_rssi=self._refs[surviving],
            tracking_rssi=self._mean[series][surviving],
            reference_positions=self.reference_positions,
            reader_ids=tuple(self.reader_ids[i] for i in surviving),
            tag_id=tracking_tag_id,
            timestamp=now_s,
            masked=True,
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
        self._block(now_s)
        return self._refs.copy()

    def coverage(self, now_s: float) -> dict[str, float]:
        """Fraction of fresh (reader, reference-tag) series per reader.

        Diagnostic used by examples to decide the warm-up time before the
        first snapshot.
        """
        self._block(now_s)
        n_refs = len(self.reference_ids)
        counts = self._refs_fresh.sum(axis=1).tolist()
        return {r: count / n_refs for r, count in zip(self.reader_ids, counts)}

    def reader_freshness(self, now_s: float) -> dict[str, float]:
        """Fresh fraction of reference-tag series per reader.

        The service health tracker's input; the same fractions as
        :meth:`coverage`.
        """
        return self.coverage(now_s)
