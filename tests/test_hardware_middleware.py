"""Tests for the middleware server and its smoothing."""

from __future__ import annotations

import numpy as np
import pytest

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
        # Degenerate server built by bypassing the reference-tag check is
        # impossible via the constructor; the guard is exercised through
        # reader_freshness on a server that has seen nothing yet.
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
