"""Differential tests: the column-store middleware equals the per-series one.

``MiddlewareServer`` keeps every (reader, tag) series in one column
store and reads each serving instant with one gather. The oracle below
is the per-series route it replaced, kept here and only here: a dict of
deques, a memoised ``np.mean`` per series, and one Python freshness
check per (reader, tag) read. Over random record streams both must give
the same strict and partial snapshots, reference matrices and coverage,
bit for bit, and refuse with the same ``ReadingError``.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ReadingError
from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector
from repro.faults.models import DelayFault
from repro.hardware.middleware import MiddlewareServer, SmoothingSpec
from repro.hardware.readers import ReadingRecord
from repro.types import TrackingReading

READERS = ("r0", "r1", "r2")
REFERENCES = {"ref-0": (0.0, 0.0), "ref-1": (1.0, 0.0), "ref-2": (0.0, 1.0)}
TRACKING = ("track-a", "track-b", "never-seen")


# -- the oracle: the per-series middleware, before the column store -----------


class _Series:
    def __init__(self, window: int):
        self.history: deque[float] = deque(maxlen=window)
        self.last_time = -np.inf
        self._window_cache: float | None = None

    def update(self, rssi: float, time_s: float) -> None:
        self.history.append(rssi)
        self._window_cache = None
        self.last_time = time_s

    def value(self) -> float:
        if self._window_cache is None:
            self._window_cache = float(np.mean(self.history))
        return self._window_cache


class OracleMiddleware:
    def __init__(self, reader_ids, reference_tags, smoothing, tracking_smoothing):
        self.reader_ids = tuple(reader_ids)
        self.reference_ids = tuple(reference_tags)
        self.reference_positions = np.array(
            [reference_tags[t] for t in self.reference_ids], dtype=np.float64
        )
        self.smoothing = smoothing
        self.tracking_smoothing = tracking_smoothing
        self._series: dict[tuple[str, str], _Series] = {}

    def _spec_for(self, tag_id):
        if tag_id in self.reference_ids:
            return self.smoothing
        return self.tracking_smoothing

    def ingest(self, record):
        if record.reader_id not in self.reader_ids:
            raise ReadingError(f"unknown reader id {record.reader_id!r}")
        key = (record.reader_id, record.tag_id)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _Series(self._spec_for(record.tag_id).window)
        series.update(record.rssi_dbm, record.time_s)

    def _smoothed(self, reader_id, tag_id, now_s):
        series = self._series.get((reader_id, tag_id))
        if series is None or not series.history:
            return None
        max_age = self._spec_for(tag_id).max_age_s
        if max_age is not None and now_s - series.last_time > max_age:
            return None
        return series.value()

    def snapshot(self, tracking_tag_id, now_s, *, allow_partial=False):
        if not allow_partial:
            k, n = len(self.reader_ids), len(self.reference_ids)
            ref, trk = np.empty((k, n)), np.empty(k)
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
        surviving, trk_vals, rows, missing_refs = [], [], [], 0
        for i, reader_id in enumerate(self.reader_ids):
            t_val = self._smoothed(reader_id, tracking_tag_id, now_s)
            if t_val is None:
                continue
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
        return TrackingReading(
            reference_rssi=np.vstack(rows),
            tracking_rssi=np.asarray(trk_vals),
            reference_positions=self.reference_positions,
            reader_ids=tuple(self.reader_ids[i] for i in surviving),
            tag_id=tracking_tag_id,
            timestamp=now_s,
            masked=missing_refs > 0 or len(surviving) < len(self.reader_ids),
        )

    def reference_matrix(self, now_s):
        out = np.full((len(self.reader_ids), len(self.reference_ids)), np.nan)
        for i, reader_id in enumerate(self.reader_ids):
            for j, ref_id in enumerate(self.reference_ids):
                value = self._smoothed(reader_id, ref_id, now_s)
                if value is not None:
                    out[i, j] = value
        return out

    def coverage(self, now_s):
        n_refs = len(self.reference_ids)
        return {
            reader_id: sum(
                1
                for ref_id in self.reference_ids
                if self._smoothed(reader_id, ref_id, now_s) is not None
            )
            / n_refs
            for reader_id in self.reader_ids
        }

    def reader_freshness(self, now_s):
        return self.coverage(now_s)


# -- harness ----------------------------------------------------------------------


def _pair(smoothing, tracking_smoothing):
    args = (READERS, REFERENCES, smoothing, tracking_smoothing)
    return MiddlewareServer(*args), OracleMiddleware(*args)


def _outcome(call):
    """A comparable form of a read: its bytes and labels, or its error."""
    try:
        result = call()
    except ReadingError as exc:
        return ("error", type(exc).__name__, str(exc))
    if isinstance(result, TrackingReading):
        return (
            "reading",
            result.reference_rssi.shape,
            result.reference_rssi.tobytes(),
            result.tracking_rssi.tobytes(),
            result.reader_ids,
            result.masked,
            result.tag_id,
            result.timestamp,
        )
    if isinstance(result, np.ndarray):
        return ("matrix", result.shape, result.tobytes())
    return ("coverage", tuple((r, v.hex()) for r, v in result.items()))


def _reads(server, now_s):
    out = [_outcome(lambda: server.reference_matrix(now_s))]
    out.append(_outcome(lambda: server.coverage(now_s)))
    out.append(_outcome(lambda: server.reader_freshness(now_s)))
    for tag in (*TRACKING, "ref-0"):  # a reference tag may be tracked too
        out.append(_outcome(lambda: server.snapshot(tag, now_s)))
        out.append(
            _outcome(lambda: server.snapshot(tag, now_s, allow_partial=True))
        )
    return out


def assert_same_reads(server, oracle, now_s):
    assert _reads(server, now_s) == _reads(oracle, now_s)


# -- strategies ---------------------------------------------------------------------

specs = st.builds(
    SmoothingSpec,
    window=st.integers(1, 40),
    max_age_s=st.one_of(st.none(), st.floats(0.5, 20.0)),
)
rssi = st.one_of(
    st.floats(-100.0, -30.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
records = st.builds(
    ReadingRecord,
    reader_id=st.sampled_from(READERS),
    tag_id=st.sampled_from((*REFERENCES, *TRACKING[:2])),
    time_s=st.floats(0.0, 60.0),
    rssi_dbm=rssi,
)
# A stream is ingests interleaved with reads at arbitrary instants; the
# record times are drawn independently, so they arrive out of order.
operations = st.lists(
    st.one_of(records, st.floats(0.0, 80.0)), min_size=1, max_size=120
)


class TestColumnStoreEqualsOracle:
    # Finite readings near the float limit overflow a window's sum to
    # ±inf (or NaN) in both stores alike; numpy warns each time.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @given(smoothing=specs, tracking=specs, ops=operations)
    @settings(max_examples=300, deadline=None)
    def test_random_streams(self, smoothing, tracking, ops):
        server, oracle = _pair(smoothing, tracking)
        for op in ops:
            if isinstance(op, ReadingRecord):
                server.ingest(op)
                oracle.ingest(op)
            else:
                assert_same_reads(server, oracle, op)
        assert_same_reads(server, oracle, 60.0)

    @given(
        window=st.integers(1, 40),
        tracking_window=st.integers(1, 40),
        n_beacons=st.integers(1, 60),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_full_windows_every_tag_fresh(
        self, window, tracking_window, n_beacons, seed
    ):
        # Every series beacons in lockstep, so strict snapshots succeed and
        # every fill count up to the window is read.
        server, oracle = _pair(
            SmoothingSpec(window=window, max_age_s=None),
            SmoothingSpec(window=tracking_window, max_age_s=5.0),
        )
        rng = np.random.default_rng(seed)
        for b in range(n_beacons):
            for tag in (*REFERENCES, *TRACKING[:2]):
                for reader in READERS:
                    record = ReadingRecord(reader, tag, float(b), rng.normal(-65, 8))
                    server.ingest(record)
                    oracle.ingest(record)
            assert_same_reads(server, oracle, b + 0.5)

    @given(
        jitter_s=st.floats(0.5, 6.0),
        window=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_delayed_delivery_reorders_time(self, jitter_s, window, seed):
        # FaultInjector's delay fault releases records late and out of
        # order, with their measurement times untouched.
        server, oracle = _pair(
            SmoothingSpec(window=window, max_age_s=3.0),
            SmoothingSpec(window=1, max_age_s=3.0),
        )
        injector = FaultInjector(
            FaultPlan([DelayFault(delay_s=0.5, jitter_s=jitter_s)], seed=seed)
        )
        rng = np.random.default_rng(seed)
        for step in range(40):
            now = step * 0.5
            tag = (*REFERENCES, *TRACKING[:2])[step % 5]
            for reader in READERS:
                record = ReadingRecord(reader, tag, now, rng.normal(-65, 8))
                for out in injector.process([record], now):
                    server.ingest(out)
                    oracle.ingest(out)
            assert_same_reads(server, oracle, now)
        assert injector.records_delayed > 0


class TestStrictErrorOrder:
    @pytest.mark.parametrize("missing, expected", [
        # r0 lacks ref-1 and r1 lacks the tracking tag: readers come first.
        ({("r0", "ref-1"), ("r1", "track-a")}, ("r0", "reference tag 'ref-1'")),
        # r0 lacks both: the tracking tag comes before the references.
        ({("r0", "ref-1"), ("r0", "track-a")}, ("r0", "tracking tag 'track-a'")),
        ({("r2", "ref-2"), ("r2", "ref-0")}, ("r2", "reference tag 'ref-0'")),
    ])
    def test_first_missing_series_is_reader_major_tracking_first(
        self, missing, expected
    ):
        server, oracle = _pair(SmoothingSpec(window=2), SmoothingSpec(window=2))
        for tag in (*REFERENCES, "track-a"):
            for reader in READERS:
                if (reader, tag) not in missing:
                    record = ReadingRecord(reader, tag, 0.0, -60.0)
                    server.ingest(record)
                    oracle.ingest(record)
        with pytest.raises(ReadingError) as got:
            server.snapshot("track-a", 1.0)
        with pytest.raises(ReadingError) as want:
            oracle.snapshot("track-a", 1.0)
        reader, series = expected
        assert str(got.value) == str(want.value) == (
            f"reader {reader!r} has no fresh reading of {series} at t=1.0s"
        )
