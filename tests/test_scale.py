"""Tests for the large-scale (§6) study utilities."""

from __future__ import annotations

import pytest

from repro import (
    LandmarcEstimator,
    ReferenceGrid,
    VIREConfig,
    VIREEstimator,
    run_scenario,
)
from repro.exceptions import ConfigurationError
from repro.experiments.scale import (
    large_scale_scenario,
    perimeter_reader_positions,
    scaled_environment,
)
from repro.geometry import Room
from repro.rf import env3

from .conftest import make_clean_environment


class TestScaledEnvironment:
    def test_room_contains_reader_ring(self):
        grid = ReferenceGrid(rows=8, cols=8)
        env = scaled_environment(env3(), grid)
        for pos in perimeter_reader_positions(grid):
            assert env.room.contains(pos, pad=1e-9)

    def test_channel_parameters_preserved(self):
        grid = ReferenceGrid(rows=6, cols=6)
        base = env3()
        env = scaled_environment(base, grid)
        assert env.path_loss == base.path_loss
        assert env.shadowing == base.shadowing
        assert env.reference_tag_offset_sigma_db == base.reference_tag_offset_sigma_db
        assert env.name == "Env3-L"

    def test_clearance_validated(self):
        grid = ReferenceGrid(rows=6, cols=6)
        with pytest.raises(ConfigurationError):
            scaled_environment(env3(), grid, wall_clearance_m=0.5)


class TestPerimeterReaders:
    def test_corners_included(self):
        grid = ReferenceGrid(rows=4, cols=4)
        ring = perimeter_reader_positions(grid, per_side=1)
        as_set = {tuple(p) for p in ring}
        for corner in ((-1.0, -1.0), (4.0, -1.0), (-1.0, 4.0), (4.0, 4.0)):
            assert corner in as_set

    def test_counts_scale_with_per_side(self):
        grid = ReferenceGrid(rows=4, cols=4)
        small = perimeter_reader_positions(grid, per_side=1)
        large = perimeter_reader_positions(grid, per_side=3)
        assert large.shape[0] > small.shape[0]

    def test_no_duplicates(self):
        grid = ReferenceGrid(rows=4, cols=4)
        ring = perimeter_reader_positions(grid, per_side=2)
        assert len({tuple(p) for p in ring}) == ring.shape[0]

    def test_invalid_per_side(self):
        with pytest.raises(ConfigurationError):
            perimeter_reader_positions(ReferenceGrid(), per_side=0)


class TestLargeScaleScenario:
    def test_structure(self):
        scenario = large_scale_scenario(
            rows=6, cols=6, n_tracking_tags=5, n_trials=2
        )
        assert scenario.grid.n_tags == 36
        assert len(scenario.tracking_tags) == 5
        area = Room(scenario.grid.bounds)
        for pos in scenario.tracking_tags.values():
            assert area.contains(pos)

    def test_tags_deterministic_per_seed(self):
        a = large_scale_scenario(n_tracking_tags=4, tag_seed=9)
        b = large_scale_scenario(n_tracking_tags=4, tag_seed=9)
        assert a.tracking_tags == b.tracking_tags

    @pytest.mark.slow
    def test_vire_beats_landmarc_at_scale(self):
        scenario = large_scale_scenario(
            rows=6,
            cols=6,
            base_environment=env3(),
            n_tracking_tags=6,
            n_trials=5,
        )
        vire = VIREEstimator(
            scenario.grid, VIREConfig(subdivisions=6)  # keep N² moderate
        )
        result = run_scenario(scenario, [LandmarcEstimator(), vire])
        lm = result.by_name("LANDMARC").summary().mean
        vi = result.by_name("VIRE").summary().mean
        assert vi < lm

    @pytest.mark.slow
    def test_interior_error_stable_as_grid_grows(self):
        """VIRE's interior accuracy should not degrade when the sensing
        area grows (per-cell behaviour is local)."""
        errors = {}
        for size in (4, 7):
            scenario = large_scale_scenario(
                rows=size,
                cols=size,
                base_environment=make_clean_environment(),
                n_tracking_tags=6,
                n_trials=3,
            )
            vire = VIREEstimator(scenario.grid, VIREConfig(subdivisions=8))
            result = run_scenario(scenario, [vire])
            errors[size] = result.estimators[0].summary().mean
        assert errors[7] < errors[4] + 0.15
