"""Tests for the middleware server and its smoothing."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, ReadingError
from repro.hardware.middleware import MiddlewareServer, SmoothingSpec
from repro.hardware.readers import ReadingRecord


def make_server(window=3, max_age=None):
    return MiddlewareServer(
        reader_ids=["r0", "r1"],
        reference_tags={"ref-0": (0.0, 0.0), "ref-1": (1.0, 0.0)},
        smoothing=SmoothingSpec(window=window, max_age_s=max_age),
    )


def feed(server, reader, tag, values, t0=0.0, dt=1.0):
    for i, v in enumerate(values):
        server.ingest(ReadingRecord(reader, tag, t0 + i * dt, v))


def fill_all(server, value=-70.0, t=0.0):
    for reader in server.reader_ids:
        for tag in (*server.reference_ids, "track"):
            server.ingest(ReadingRecord(reader, tag, t, value))


class TestSmoothingSpec:
    # The window mean is the one smoothing: there is no mode or EWMA
    # weight to set, and passing one is refused rather than ignored.
    def test_invalid_mode(self):
        with pytest.raises(TypeError):
            SmoothingSpec(mode="median")  # type: ignore[call-arg]

    def test_invalid_alpha(self):
        with pytest.raises(TypeError):
            SmoothingSpec(alpha=0.5)  # type: ignore[call-arg]

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            SmoothingSpec(window=0)

    @pytest.mark.parametrize("field_name, value", [
        ("max_age_s", math.nan),
        ("max_age_s", math.inf),
        ("max_age_s", -1.0),
        ("window", True),
        ("window", 2.5),
        ("window", 3.0),
    ])
    def test_non_finite_and_non_integer_values_rejected(self, field_name, value):
        # A NaN max age used to turn freshness off silently, window=True
        # was taken as 1, and window=2.5 failed with a raw TypeError at
        # the first ingest.
        with pytest.raises(ConfigurationError, match=field_name):
            SmoothingSpec(**{field_name: value})

    @given(
        field_name=st.sampled_from(["window", "max_age_s"]),
        value=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(-3, 64),
            st.booleans(),
            st.none(),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_spec_either_validates_or_raises(self, field_name, value):
        try:
            spec = SmoothingSpec(**{field_name: value})
        except ConfigurationError:
            return
        # Accepted values are stored untouched and are usable.
        stored = getattr(spec, field_name)
        assert stored is value
        assert not isinstance(stored, bool)
        if field_name == "window":
            assert isinstance(stored, int) and stored >= 1
        elif stored is not None:
            assert math.isfinite(stored) and stored > 0
        server = MiddlewareServer(
            reader_ids=["r0"], reference_tags={"ref-0": (0.0, 0.0)},
            smoothing=spec,
        )
        fill_all(server, t=0.0)
        assert server.snapshot("track", now_s=0.0).tracking_rssi[0] == -70.0


class TestMiddleware:
    def test_window_mean(self):
        server = make_server(window=3)
        fill_all(server)
        feed(server, "r0", "track", [-60.0, -62.0, -64.0, -66.0])
        snap = server.snapshot("track", now_s=10.0)
        # Window of 3 keeps the last three readings.
        assert snap.tracking_rssi[0] == pytest.approx(np.mean([-62, -64, -66]))

    def test_latest_mode(self):
        # A window of one serves the latest reading unsmoothed.
        server = make_server(window=1)
        fill_all(server)
        feed(server, "r0", "track", [-60.0, -65.0])
        snap = server.snapshot("track", now_s=10.0)
        assert snap.tracking_rssi[0] == -65.0

    def test_window_memo_refreshes_on_ingest(self):
        server = make_server(window=3)
        fill_all(server)  # primes every series with -70
        first = server.snapshot("track", now_s=10.0).tracking_rssi[0]
        feed(server, "r0", "track", [-60.0, -70.0])
        snap = server.snapshot("track", now_s=10.0)
        assert first == -70.0
        assert snap.tracking_rssi[0] == float(np.mean([-70.0, -60.0, -70.0]))

    def test_snapshot_shapes_and_positions(self):
        server = make_server()
        fill_all(server)
        snap = server.snapshot("track", now_s=1.0)
        assert snap.reference_rssi.shape == (2, 2)
        assert snap.tracking_rssi.shape == (2,)
        np.testing.assert_array_equal(
            snap.reference_positions, [[0.0, 0.0], [1.0, 0.0]]
        )
        assert snap.reader_ids == ("r0", "r1")

    def test_missing_tracking_reading_raises(self):
        server = make_server()
        for reader in server.reader_ids:
            for tag in server.reference_ids:
                server.ingest(ReadingRecord(reader, tag, 0.0, -70.0))
        with pytest.raises(ReadingError, match="tracking"):
            server.snapshot("track", now_s=1.0)

    def test_missing_reference_reading_raises(self):
        server = make_server()
        fill_all(server)
        fresh = make_server()
        # Only r0 saw ref-1.
        feed(fresh, "r0", "ref-0", [-70.0])
        feed(fresh, "r0", "ref-1", [-70.0])
        feed(fresh, "r1", "ref-0", [-70.0])
        feed(fresh, "r0", "track", [-70.0])
        feed(fresh, "r1", "track", [-70.0])
        with pytest.raises(ReadingError, match="reference"):
            fresh.snapshot("track", now_s=1.0)

    def test_stale_series_treated_missing(self):
        server = make_server(max_age=5.0)
        fill_all(server, t=0.0)
        with pytest.raises(ReadingError):
            server.snapshot("track", now_s=100.0)

    def test_fresh_series_pass_age_check(self):
        server = make_server(max_age=5.0)
        fill_all(server, t=0.0)
        snap = server.snapshot("track", now_s=4.0)
        assert snap.timestamp == 4.0

    def test_unknown_reader_rejected(self):
        server = make_server()
        with pytest.raises(ReadingError, match="unknown reader"):
            server.ingest(ReadingRecord("r9", "t", 0.0, -70.0))

    def test_coverage_fractions(self):
        server = make_server()
        feed(server, "r0", "ref-0", [-70.0])
        cov = server.coverage(now_s=1.0)
        assert cov == {"r0": 0.5, "r1": 0.0}

    def test_records_ingested_counter(self):
        server = make_server()
        fill_all(server)
        assert server.records_ingested == 6
        assert server.records_rejected == 0

    def test_duplicate_reader_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            MiddlewareServer(
                reader_ids=["r0", "r0"],
                reference_tags={"a": (0.0, 0.0)},
            )

    def test_needs_reference_tags(self):
        with pytest.raises(ConfigurationError):
            MiddlewareServer(reader_ids=["r0"], reference_tags={})


class TestPartialSnapshot:
    """allow_partial=True: masked readings instead of ReadingError."""

    def test_complete_data_equals_strict(self):
        server = make_server()
        fill_all(server)
        strict = server.snapshot("track", now_s=1.0)
        partial = server.snapshot("track", now_s=1.0, allow_partial=True)
        assert not partial.masked
        assert np.array_equal(strict.reference_rssi, partial.reference_rssi)
        assert np.array_equal(strict.tracking_rssi, partial.tracking_rssi)
        assert strict.reader_ids == partial.reader_ids

    def test_missing_reference_becomes_nan(self):
        server = make_server()
        feed(server, "r0", "ref-0", [-70.0])
        feed(server, "r0", "track", [-60.0])
        feed(server, "r1", "ref-0", [-70.0])
        feed(server, "r1", "ref-1", [-71.0])
        feed(server, "r1", "track", [-61.0])
        snap = server.snapshot("track", now_s=1.0, allow_partial=True)
        assert snap.masked
        assert snap.n_readers == 2
        assert np.isnan(snap.reference_rssi[0, 1])  # r0 never saw ref-1
        assert np.isfinite(snap.reference_rssi[1]).all()

    def test_reader_without_tracking_value_absent(self):
        server = make_server()
        fill_all(server)
        # r1's tracking series goes stale-free but we build a fresh server
        # where r1 never saw the tracking tag at all.
        fresh = make_server()
        for reader in fresh.reader_ids:
            for tag in fresh.reference_ids:
                fresh.ingest(ReadingRecord(reader, tag, 0.0, -70.0))
        feed(fresh, "r0", "track", [-60.0])
        snap = fresh.snapshot("track", now_s=1.0, allow_partial=True)
        assert snap.masked
        assert snap.n_readers == 1
        assert snap.reader_ids == ("r0",)

    def test_no_reader_has_tracking_still_raises(self):
        server = make_server()
        for reader in server.reader_ids:
            for tag in server.reference_ids:
                server.ingest(ReadingRecord(reader, tag, 0.0, -70.0))
        with pytest.raises(ReadingError, match="no reader"):
            server.snapshot("track", now_s=1.0, allow_partial=True)

    def test_stale_expiry_masks_in_partial_mode(self):
        server = make_server(max_age=5.0)
        fill_all(server, t=0.0)
        feed(server, "r0", "track", [-60.0], t0=99.0)
        feed(server, "r0", "ref-0", [-70.0], t0=99.0)
        snap = server.snapshot("track", now_s=100.0, allow_partial=True)
        assert snap.masked
        assert snap.reader_ids == ("r0",)  # r1 fully stale -> absent
        assert np.isnan(snap.reference_rssi[0, 1])  # ref-1 stale for r0


class TestFrameStatsAndFreshness:
    def test_frame_stats_requires_known_reader(self):
        server = make_server()

        class FakeReader:
            reader_id = "r9"
            frames_received = 0
            frames_dropped = 0

        with pytest.raises(ConfigurationError, match="unknown reader"):
            server.register_frame_source(FakeReader())

    def test_frame_stats_mirror_reader_counters(self):
        server = make_server()

        class FakeReader:
            def __init__(self, rid):
                self.reader_id = rid
                self.frames_received = 7
                self.frames_dropped = 2

        r0, r1 = FakeReader("r0"), FakeReader("r1")
        server.register_frame_source(r0)
        server.register_frame_source(r1)
        r1.frames_received = 11  # live counter: stats read through
        stats = server.frame_stats()
        assert stats["r0"] == {"received": 7, "dropped": 2}
        assert stats["r1"] == {"received": 11, "dropped": 2}

    def test_frame_stats_zero_without_sources(self):
        assert make_server().frame_stats() == {
            "r0": {"received": 0, "dropped": 0},
            "r1": {"received": 0, "dropped": 0},
        }

    def test_coverage_guards_zero_references(self):
        # The constructor requires a reference tag, so the degenerate
        # case is a server that has seen nothing yet.
        server = make_server()
        fresh = server.reader_freshness(now_s=0.0)
        # References never seen -> 0.0 each.
        assert fresh == {"r0": 0.0, "r1": 0.0}

    def test_reader_freshness_is_coverage(self):
        server = make_server(max_age=5.0)
        fill_all(server, t=0.0)
        assert server.reader_freshness(now_s=1.0) == {"r0": 1.0, "r1": 1.0}
        # A fresh tracking tag does not keep a reader fresh.
        feed(server, "r0", "track", [-70.0], t0=98.0)
        fresh = server.reader_freshness(now_s=100.0)
        assert fresh == {"r0": 0.0, "r1": 0.0}
        assert fresh == server.coverage(now_s=100.0)

    def test_reader_freshness_partial(self):
        server = make_server(max_age=5.0)
        fill_all(server, t=0.0)
        # Only r0 keeps beating.
        feed(server, "r0", "ref-0", [-70.0], t0=98.0)
        feed(server, "r0", "ref-1", [-70.0], t0=98.0)
        fresh = server.reader_freshness(now_s=100.0)
        assert fresh["r0"] == 1.0
        assert fresh["r1"] == 0.0


class TestNonFiniteRecords:
    @pytest.mark.parametrize("time_s, rssi", [
        (0.0, math.nan), (0.0, math.inf), (0.0, -math.inf),
        (math.nan, -60.0), (math.inf, -60.0), (-math.inf, -60.0),
    ])
    def test_dropped_and_counted(self, time_s, rssi):
        server = make_server(window=3, max_age=5.0)
        fill_all(server)
        before = server.snapshot("track", now_s=1.0)
        server.ingest(ReadingRecord("r0", "ref-0", time_s, rssi))
        server.ingest(ReadingRecord("r0", "track", time_s, rssi))
        assert server.records_rejected == 2
        assert server.records_ingested == 6
        after = server.snapshot("track", now_s=1.0)
        assert after.reference_rssi.tobytes() == before.reference_rssi.tobytes()
        assert after.tracking_rssi.tobytes() == before.tracking_rssi.tobytes()

    def test_one_nan_no_longer_refuses_a_partial_snapshot(self):
        # A NaN record used to sit in its window for the next `window`
        # readings, and every snapshot of the tag, partial ones too,
        # was refused with "reference_rssi contains non-finite values".
        server = make_server(window=3)
        fill_all(server)
        server.ingest(ReadingRecord("r1", "ref-1", 0.5, math.nan))
        snap = server.snapshot("track", now_s=1.0, allow_partial=True)
        assert not snap.masked
        assert np.isfinite(snap.reference_rssi).all()

    def test_unknown_reader_still_raises(self):
        server = make_server()
        with pytest.raises(ReadingError, match="unknown reader"):
            server.ingest(ReadingRecord("r9", "ref-0", 0.0, math.nan))
        assert server.records_rejected == 0


READER_IDS = ("r0", "r1", "r-unknown")
TAG_IDS = ("ref-0", "ref-1", "track", "other")

fuzz_records = st.builds(
    ReadingRecord,
    reader_id=st.one_of(st.sampled_from(READER_IDS), st.text(max_size=3)),
    tag_id=st.one_of(st.sampled_from(TAG_IDS), st.text(max_size=3)),
    time_s=st.floats(allow_nan=True, allow_infinity=True),
    rssi_dbm=st.floats(allow_nan=True, allow_infinity=True),
)
# A stream mixes malformed records, well-formed beacons whose times come
# in any order (late, reordered delivery) and reads at arbitrary instants.
fuzz_streams = st.lists(
    st.one_of(
        fuzz_records,
        st.tuples(st.floats(0.0, 100.0), st.floats(-100.0, -20.0)),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    max_size=80,
)


class TestRecordStreamFuzz:
    """Malformed and reordered streams: typed errors or valid readings."""

    def _read(self, server, now_s):
        for tag in ("track", "other", "never-seen"):
            for partial in (False, True):
                try:
                    snap = server.snapshot(tag, now_s, allow_partial=partial)
                except ReadingError:
                    continue
                k = len(server.reader_ids)
                assert snap.reference_rssi.shape == (snap.n_readers, 2)
                assert 1 <= snap.n_readers <= k
                assert np.isfinite(snap.tracking_rssi).all()
                assert set(snap.reader_ids) <= set(server.reader_ids)
                if not partial:
                    assert not snap.masked and snap.n_readers == k
        matrix = server.reference_matrix(now_s)
        assert matrix.shape == (2, 2) and matrix.dtype == np.float64
        coverage = server.coverage(now_s)
        assert list(coverage) == list(server.reader_ids)
        assert all(0.0 <= v <= 1.0 for v in coverage.values())

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @given(
        stream=fuzz_streams,
        window=st.integers(1, 9),
        tracking_window=st.integers(1, 9),
        max_age=st.one_of(st.none(), st.floats(0.1, 50.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_typed_errors_or_valid_readings(
        self, stream, window, tracking_window, max_age
    ):
        server = MiddlewareServer(
            reader_ids=["r0", "r1"],
            reference_tags={"ref-0": (0.0, 0.0), "ref-1": (1.0, 0.0)},
            smoothing=SmoothingSpec(window=window, max_age_s=max_age),
            tracking_smoothing=SmoothingSpec(
                window=tracking_window, max_age_s=max_age
            ),
        )
        accepted = rejected = 0
        for item in stream:
            if isinstance(item, float):
                self._read(server, item)
                continue
            if isinstance(item, tuple):  # a well-formed, jittered beacon
                t, rssi = item
                item = ReadingRecord("r0", "track", t, rssi)
            try:
                server.ingest(item)
            except ReadingError:
                assert item.reader_id not in server.reader_ids
                continue
            finite = math.isfinite(item.time_s) and math.isfinite(item.rssi_dbm)
            accepted += finite
            rejected += not finite
        assert (server.records_ingested, server.records_rejected) == (
            accepted, rejected,
        )
        self._read(server, 50.0)
