"""Tests for the baseline estimators (LANDMARC and friends)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import paper_testbed_grid
from repro.baselines import (
    LandmarcEstimator,
    NearestReferenceEstimator,
    WeightedCentroidEstimator,
)
from repro.baselines.landmarc import rssi_space_distances
from repro.exceptions import ConfigurationError

from .conftest import make_clean_environment, make_reading
from repro.experiments.measurement import MeasurementSpec, TrialSampler


def clean_reading_at(position, seed=0):
    sampler = TrialSampler(
        make_clean_environment(),
        paper_testbed_grid(),
        seed=seed,
        measurement=MeasurementSpec(n_reads=1),
    )
    return sampler.reading_for(position)


class TestRssiSpaceDistances:
    def test_zero_for_matching_column(self):
        ref = np.full((4, 16), -70.0)
        ref[:, 3] = -60.0
        reading = make_reading(ref, np.full(4, -60.0))
        e = rssi_space_distances(reading)
        assert e[3] == 0.0
        assert np.all(e[np.arange(16) != 3] > 0)

    def test_euclidean_value(self):
        ref = np.zeros((2, 1))
        reading = make_reading(
            np.array([[-60.0], [-70.0]]), np.array([-63.0, -74.0]),
            grid=None,
        ) if False else None
        # Direct construction with one reference tag:
        from repro.types import TrackingReading

        r = TrackingReading(
            reference_rssi=np.array([[-60.0], [-70.0]]),
            tracking_rssi=np.array([-63.0, -74.0]),
            reference_positions=np.array([[0.0, 0.0]]),
        )
        assert rssi_space_distances(r)[0] == pytest.approx(5.0)


class TestLandmarc:
    def test_exact_match_snaps_to_reference(self):
        ref = np.full((4, 16), -70.0)
        ref[:, 5] = -60.0
        reading = make_reading(ref, np.full(4, -60.0))
        result = LandmarcEstimator().estimate(reading)
        np.testing.assert_allclose(
            result.position, reading.reference_positions[5]
        )
        assert result.diagnostics["exact_match"] is True

    def test_estimate_in_convex_hull_of_neighbours(self):
        reading = clean_reading_at((1.3, 1.7))
        result = LandmarcEstimator().estimate(reading)
        neighbours = result.diagnostics["neighbours"]
        hull_pts = reading.reference_positions[neighbours]
        assert hull_pts[:, 0].min() - 1e-9 <= result.x <= hull_pts[:, 0].max() + 1e-9
        assert hull_pts[:, 1].min() - 1e-9 <= result.y <= hull_pts[:, 1].max() + 1e-9

    def test_clean_channel_good_accuracy(self):
        # In the ideal channel LANDMARC should be decimetre-accurate.
        for pos in [(1.3, 1.7), (0.7, 2.2), (2.4, 0.9)]:
            reading = clean_reading_at(pos)
            err = LandmarcEstimator().estimate(reading).error_to(pos)
            assert err < 0.25, (pos, err)

    def test_k4_selects_cell_corners_in_clean_channel(self):
        reading = clean_reading_at((1.5, 1.5))
        result = LandmarcEstimator(k=4).estimate(reading)
        cols = paper_testbed_grid().cols
        # Row-major flat indices of the tags at (row, col) = (1..2, 1..2).
        expected = {1 * cols + 1, 1 * cols + 2, 2 * cols + 1, 2 * cols + 2}
        assert set(result.diagnostics["neighbours"]) == expected

    def test_weights_sum_to_one(self):
        reading = clean_reading_at((2.2, 1.1))
        weights = LandmarcEstimator().estimate(reading).diagnostics["weights"]
        assert sum(weights) == pytest.approx(1.0)
        assert all(w >= 0 for w in weights)

    def test_k_larger_than_population_clamped(self):
        reading = clean_reading_at((1.0, 1.0))
        result = LandmarcEstimator(k=50).estimate(reading)
        assert len(result.diagnostics["neighbours"]) == 16

    def test_invalid_k_rejected(self):
        with pytest.raises(ConfigurationError):
            LandmarcEstimator(k=0)

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            LandmarcEstimator(epsilon=0.0)


class TestNearestReference:
    def test_snaps_to_closest_tag(self):
        reading = clean_reading_at((1.1, 1.9))
        result = NearestReferenceEstimator().estimate(reading)
        # Closest grid tag to (1.1, 1.9) is (1, 2).
        np.testing.assert_allclose(result.position, (1.0, 2.0))

    def test_error_bounded_by_half_diagonal(self):
        # Anywhere inside the grid, the nearest tag is within half a cell
        # diagonal (~0.71 m) in the clean channel.
        for pos in [(0.4, 0.4), (1.5, 1.5), (2.9, 2.1)]:
            err = NearestReferenceEstimator().estimate(
                clean_reading_at(pos)
            ).error_to(pos)
            assert err <= np.sqrt(2) / 2 + 0.05


class TestWeightedCentroid:
    def test_small_tau_approaches_nearest(self):
        reading = clean_reading_at((1.1, 1.9))
        soft = WeightedCentroidEstimator(tau_db=0.05).estimate(reading)
        near = NearestReferenceEstimator().estimate(reading)
        assert soft.error_to(near.position) < 0.1

    def test_large_tau_approaches_grid_centroid(self):
        reading = clean_reading_at((0.3, 0.3))
        soft = WeightedCentroidEstimator(tau_db=1000.0).estimate(reading)
        centroid = reading.reference_positions.mean(axis=0)
        np.testing.assert_allclose(soft.position, centroid, atol=0.01)

    def test_moderate_tau_reasonable_accuracy(self):
        pos = (1.6, 1.4)
        err = WeightedCentroidEstimator(tau_db=2.0).estimate(
            clean_reading_at(pos)
        ).error_to(pos)
        assert err < 0.6

    def test_invalid_tau_rejected(self):
        with pytest.raises(ConfigurationError):
            WeightedCentroidEstimator(tau_db=0.0)
