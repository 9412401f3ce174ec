"""Tests for SoftVIRE and the spatial error map."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    LandmarcEstimator,
    SoftVIREEstimator,
    ReferenceGrid,
    TrackingReading,
    VIREConfig,
    VIREEstimator,
    paper_scenario,
    paper_testbed_grid,
    run_scenario,
)
from repro.analysis import format_heatmap, spatial_error_map
from repro.exceptions import ConfigurationError, ReadingError
from repro.experiments.measurement import MeasurementSpec, TrialSampler
from repro.geometry import Room

from .conftest import make_clean_environment


def clean_reading_at(position, seed=0):
    sampler = TrialSampler(
        make_clean_environment(),
        paper_testbed_grid(),
        seed=seed,
        measurement=MeasurementSpec(n_reads=1),
    )
    return sampler.reading_for(position)


class TestSoftVIRE:
    def test_accurate_in_clean_channel(self, grid):
        soft = SoftVIREEstimator(grid, sigma_db=1.0)
        for pos in [(1.5, 1.5), (0.7, 2.2)]:
            err = soft.estimate(clean_reading_at(pos)).error_to(pos)
            assert err < 0.2, pos

    def test_small_sigma_sharpens_support(self, grid):
        reading = clean_reading_at((1.4, 1.6))
        sharp = SoftVIREEstimator(grid, sigma_db=0.5).estimate(reading)
        blunt = SoftVIREEstimator(grid, sigma_db=8.0).estimate(reading)
        assert (
            sharp.diagnostics["effective_support_cells"]
            < blunt.diagnostics["effective_support_cells"]
        )

    def test_huge_sigma_approaches_lattice_centroid(self, grid):
        reading = clean_reading_at((0.5, 0.5))
        res = SoftVIREEstimator(grid, sigma_db=1000.0).estimate(reading)
        assert res.position == pytest.approx((1.5, 1.5), abs=0.05)

    def test_never_empty_failure_mode(self, grid):
        # Arbitrarily inconsistent readings still yield a finite estimate.
        reading = TrackingReading(
            reference_rssi=np.full((4, 16), -90.0),
            tracking_rssi=np.full(4, -40.0),
            reference_positions=grid.tag_positions(),
        )
        res = SoftVIREEstimator(grid).estimate(reading)
        assert np.isfinite(res.x) and np.isfinite(res.y)

    def test_layout_checked(self, grid):
        other = ReferenceGrid(rows=4, cols=4, spacing_x=2.0)
        soft = SoftVIREEstimator(other)
        with pytest.raises(ReadingError):
            soft.estimate(clean_reading_at((1.0, 1.0)))

    def test_invalid_sigma(self, grid):
        with pytest.raises(Exception):
            SoftVIREEstimator(grid, sigma_db=0.0)

    @pytest.mark.slow
    def test_competitive_with_classic_vire_env3(self, grid):
        scenario = paper_scenario("Env3", n_trials=8)
        classic = VIREEstimator(grid, VIREConfig(target_total_tags=900))
        soft = SoftVIREEstimator(grid, sigma_db=2.5)
        result = run_scenario(scenario, [classic, soft])
        classic_err = result.by_name("VIRE").summary().mean
        soft_err = result.by_name("SoftVIRE").summary().mean
        # Within 25% of each other — both implement the same idea.
        assert soft_err < classic_err * 1.25


class TestSpatialErrorMap:
    def test_structure(self, grid):
        env = make_clean_environment()
        emap = spatial_error_map(
            env, grid, LandmarcEstimator(), resolution=4, n_trials=1,
            n_reads=2,
        )
        assert emap.mean_error.shape == (4, 4)
        assert np.all(emap.mean_error >= 0)
        assert emap.estimator_name == "LANDMARC"

    def test_pad_extends_axes(self, grid):
        env = make_clean_environment()
        emap = spatial_error_map(
            env, grid, LandmarcEstimator(), resolution=3, n_trials=1,
            n_reads=1, pad_m=0.5,
        )
        assert emap.xs[0] == pytest.approx(-0.5)
        assert emap.xs[-1] == pytest.approx(3.5)

    def test_worst_lookup(self, grid):
        env = make_clean_environment()
        emap = spatial_error_map(
            env, grid, LandmarcEstimator(), resolution=3, n_trials=1,
            n_reads=1,
        )
        worst_err, worst_pos = emap.worst
        assert worst_err == pytest.approx(emap.mean_error.max())
        assert Room(grid.bounds).contains(worst_pos, pad=0.01)

    def test_formatting(self, grid):
        env = make_clean_environment()
        emap = spatial_error_map(
            env, grid, LandmarcEstimator(), resolution=3, n_trials=1,
            n_reads=1,
        )
        art = format_heatmap(emap)
        assert "worst:" in art
        assert art.count("|") >= 6  # 3 rows framed

    def test_resolution_validated(self, grid):
        with pytest.raises(ConfigurationError):
            spatial_error_map(
                make_clean_environment(), grid, LandmarcEstimator(),
                resolution=1,
            )
