"""Tests for the Cramér–Rao bound module."""

from __future__ import annotations

import numpy as np
import pytest

from repro import corner_reader_positions
from repro.analysis.crlb import average_crlb, crlb_map, crlb_point
from repro.exceptions import ConfigurationError


@pytest.fixture
def readers(grid):
    return corner_reader_positions(grid)


class TestCrlbPoint:
    def test_positive_and_finite(self, readers):
        b = crlb_point((1.5, 1.5), readers, gamma=2.0, sigma_db=1.0)
        assert 0 < b < 10
        assert np.isfinite(b)

    def test_scales_linearly_with_sigma(self, readers):
        b1 = crlb_point((1.5, 1.5), readers, gamma=2.0, sigma_db=1.0)
        b2 = crlb_point((1.5, 1.5), readers, gamma=2.0, sigma_db=2.0)
        assert b2 == pytest.approx(2.0 * b1)

    def test_higher_gamma_tightens_bound(self, readers):
        # Steeper path loss = more information per dB of measurement.
        soft = crlb_point((1.5, 1.5), readers, gamma=2.0, sigma_db=1.0)
        steep = crlb_point((1.5, 1.5), readers, gamma=4.0, sigma_db=1.0)
        assert steep == pytest.approx(soft / 2.0)

    def test_more_readers_tighten_bound(self, grid, readers):
        four = crlb_point((1.5, 1.5), readers, gamma=2.0, sigma_db=1.0)
        eight = crlb_point(
            (1.5, 1.5),
            np.vstack([readers, readers + np.array([0.1, 0.0])]),
            gamma=2.0,
            sigma_db=1.0,
        )
        assert eight < four

    def test_symmetric_at_centre(self, readers):
        # Four symmetric corner readers: bound equal at mirrored points.
        a = crlb_point((1.0, 1.0), readers, gamma=2.0, sigma_db=1.0)
        b = crlb_point((2.0, 2.0), readers, gamma=2.0, sigma_db=1.0)
        assert a == pytest.approx(b, rel=1e-9)

    def test_colinear_geometry_rejected(self):
        readers = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        # Query on the same line: all gradients parallel -> singular F.
        with pytest.raises(ConfigurationError):
            crlb_point((3.0, 0.0), readers, gamma=2.0, sigma_db=1.0)

    def test_needs_two_readers(self):
        with pytest.raises(ConfigurationError):
            crlb_point((0.0, 0.0), np.array([[1.0, 1.0]]), gamma=2.0,
                       sigma_db=1.0)

    def test_invalid_parameters(self, readers):
        with pytest.raises(Exception):
            crlb_point((0.0, 0.0), readers, gamma=0.0, sigma_db=1.0)
        with pytest.raises(Exception):
            crlb_point((0.0, 0.0), readers, gamma=2.0, sigma_db=0.0)


class TestCrlbMap:
    def test_shape_and_positivity(self, grid, readers):
        xs, ys, bound = crlb_map(grid, readers, gamma=2.8, sigma_db=1.5,
                                 resolution=5)
        assert bound.shape == (5, 5)
        assert np.all(bound > 0)

    def test_centre_better_than_corner_region(self, grid, readers):
        _, _, bound = crlb_map(grid, readers, gamma=2.8, sigma_db=1.5,
                               resolution=9)
        centre = bound[4, 4]
        # Near a reader the radial information explodes but the tangential
        # direction is weak; the centre balances all four readers.
        assert centre <= bound.max()

    def test_average_consistent_with_map(self, grid, readers):
        _, _, bound = crlb_map(grid, readers, gamma=2.8, sigma_db=1.5,
                               resolution=5)
        avg = average_crlb(grid, readers, gamma=2.8, sigma_db=1.5,
                           resolution=5)
        assert avg == pytest.approx(bound.mean())

    def test_resolution_validated(self, grid, readers):
        with pytest.raises(ConfigurationError):
            crlb_map(grid, readers, gamma=2.0, sigma_db=1.0, resolution=1)


class TestBoundVsEstimators:
    @pytest.mark.slow
    def test_vire_respects_bound_in_matched_channel(self, grid, readers):
        """In the pure log-distance channel with known noise, VIRE's error
        should sit above (but within a small factor of) the CRLB."""
        from repro import VIREConfig, VIREEstimator
        from repro.experiments.measurement import MeasurementSpec, TrialSampler
        from .conftest import make_clean_environment
        import dataclasses

        sigma = 1.0
        env = dataclasses.replace(make_clean_environment(), noise_sigma_db=sigma)
        vire = VIREEstimator(grid, VIREConfig(target_total_tags=900))
        n_reads = 4
        errors = []
        for seed in range(6):
            sampler = TrialSampler(
                env, grid, seed=seed, measurement=MeasurementSpec(n_reads=n_reads)
            )
            for pos in [(1.5, 1.5), (2.2, 0.9), (0.8, 2.1)]:
                reading = sampler.reading_for(pos)
                errors.append(vire.estimate(reading).error_to(pos))
        measured_rms = float(np.sqrt(np.mean(np.square(errors))))
        # Effective per-reading sigma after averaging n_reads.
        bound = crlb_point(
            (1.5, 1.5), readers, gamma=2.0,
            sigma_db=sigma / np.sqrt(n_reads),
        )
        assert measured_rms >= bound * 0.8  # no better than physics
        assert measured_rms <= bound * 6.0  # and not wildly above it
