"""Tests for interference, disturbance, and quantization models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.rf.disturbance import HumanMovementDisturbance
from repro.rf.interference import TagInterferenceModel
from repro.rf.quantization import PowerLevelQuantizer


class TestInterference:
    def setup_method(self):
        self.model = TagInterferenceModel(
            radius_m=0.5, free_neighbour_count=9,
            saturation_neighbour_count=19,
        )

    def test_sparse_tags_unaffected(self):
        positions = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        np.testing.assert_array_equal(self.model.severity(positions), 0.0)
        rng = np.random.default_rng(0)
        clean = np.full(3, -70.0)
        np.testing.assert_array_equal(
            self.model.corrupt(clean, positions, rng), clean
        )

    def test_ten_close_tags_still_free(self):
        # free_neighbour_count=9 -> 10 tags (9 neighbours each) unaffected.
        rng = np.random.default_rng(0)
        positions = rng.uniform(-0.05, 0.05, (10, 2))
        np.testing.assert_array_equal(self.model.severity(positions), 0.0)

    def test_twenty_packed_tags_saturated(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(-0.05, 0.05, (20, 2))
        np.testing.assert_array_equal(self.model.severity(positions), 1.0)

    def test_neighbour_counts_exclude_self(self):
        positions = np.array([[0.0, 0.0], [0.1, 0.0]])
        np.testing.assert_array_equal(
            self.model.neighbour_counts(positions), [1, 1]
        )

    def test_interference_widens_spread(self):
        """The Fig. 4 phenomenon: packed tags spread over tens of dB."""
        rng = np.random.default_rng(42)
        packed = rng.uniform(-0.05, 0.05, (20, 2))
        clean = np.full(20, -75.0)
        corrupted = self.model.corrupt(clean, packed, rng)
        assert np.ptp(corrupted) > 10.0
        assert corrupted.mean() < clean.mean()  # negative-leaning

    def test_offsets_deterministic_per_rng(self):
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        pts = np.random.default_rng(0).uniform(-0.05, 0.05, (15, 2))
        np.testing.assert_array_equal(
            self.model.systematic_offsets_db(pts, rng1),
            self.model.systematic_offsets_db(pts, rng2),
        )

    def test_reading_jitter_shape(self):
        pts = np.random.default_rng(0).uniform(-0.05, 0.05, (12, 2))
        out = self.model.reading_jitter_db(pts, np.random.default_rng(1), n_reads=7)
        assert out.shape == (12, 7)

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            TagInterferenceModel(free_neighbour_count=10, saturation_neighbour_count=10)

    def test_corrupt_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            self.model.corrupt(
                np.zeros(3), np.zeros((4, 2)), np.random.default_rng(0)
            )


class TestDisturbance:
    def setup_method(self):
        self.walk = HumanMovementDisturbance(
            waypoints=((0.0, 1.0), (4.0, 1.0)),
            speed_mps=1.0,
            body_radius_m=0.5,
            attenuation_db=10.0,
            start_time_s=5.0,
        )

    def test_path_length_and_end_time(self):
        assert self.walk.path_length_m == pytest.approx(4.0)
        assert self.walk.end_time_s == pytest.approx(9.0)

    def test_not_present_before_start(self):
        assert self.walk.position_at(4.9) is None

    def test_not_present_after_end(self):
        assert self.walk.position_at(9.1) is None

    def test_position_midwalk(self):
        assert self.walk.position_at(7.0) == pytest.approx((2.0, 1.0))

    def test_blocking_link_attenuates_fully(self):
        # Person at (2, 1), link from (2, 0) to (2, 3) passes through them.
        att = self.walk.attenuation_at_readers(7.0, (2.0, 0.0), [(2.0, 3.0)])[0]
        assert att == pytest.approx(10.0)

    def test_distant_link_unaffected(self):
        att = self.walk.attenuation_at_readers(7.0, (0.0, 3.0), [(4.0, 3.0)])[0]
        assert att == 0.0

    def test_taper_decreases_with_distance(self):
        # Link parallel to the walk, at increasing lateral offsets.
        a_close = self.walk.attenuation_at_readers(7.0, (2.0, 1.2), [(2.0, 3.0)])[0]
        a_far = self.walk.attenuation_at_readers(7.0, (2.0, 1.4), [(2.0, 3.0)])[0]
        assert a_close > a_far > 0.0

    def test_multi_segment_path(self):
        walk = HumanMovementDisturbance(
            waypoints=((0, 0), (1, 0), (1, 2)), speed_mps=1.0
        )
        assert walk.path_length_m == pytest.approx(3.0)
        assert walk.position_at(2.0) == pytest.approx((1.0, 1.0))

    def test_requires_two_waypoints(self):
        with pytest.raises(ConfigurationError):
            HumanMovementDisturbance(waypoints=((0, 0),))


class TestQuantizer:
    def setup_method(self):
        self.q = PowerLevelQuantizer(
            strongest_dbm=-55.0, weakest_dbm=-95.0, n_levels=8
        )

    def test_bin_width(self):
        assert self.q.bin_width_db == pytest.approx(5.0)

    def test_strong_signal_level_one(self):
        assert self.q.to_level(-50.0) == 1
        assert self.q.to_level(-56.0) == 1

    def test_weak_signal_max_level(self):
        assert self.q.to_level(-100.0) == 8
        assert self.q.to_level(-94.9) == 8

    def test_levels_monotone_in_rssi(self):
        rssi = np.linspace(-100, -50, 60)
        levels = self.q.to_level(rssi)
        assert np.all(np.diff(levels) <= 0)  # weaker -> higher level

    def test_to_rssi_bin_centres(self):
        assert self.q.to_rssi(1) == pytest.approx(-57.5)
        assert self.q.to_rssi(8) == pytest.approx(-92.5)

    def test_to_rssi_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            self.q.to_rssi(0)
        with pytest.raises(ConfigurationError):
            self.q.to_rssi(9)

    @given(st.floats(-120, -40))
    def test_roundtrip_error_bounded_by_bin(self, rssi):
        out = float(self.q.roundtrip(rssi))
        if -95.0 <= rssi <= -55.0:
            assert abs(out - rssi) <= self.q.bin_width_db / 2 + 1e-9

    def test_roundtrip_idempotent(self):
        rssi = np.linspace(-100, -50, 23)
        once = self.q.roundtrip(rssi)
        twice = self.q.roundtrip(once)
        np.testing.assert_allclose(once, twice)

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            PowerLevelQuantizer(strongest_dbm=-90.0, weakest_dbm=-60.0)
        with pytest.raises(ConfigurationError):
            PowerLevelQuantizer(n_levels=1)
