"""Tests for the VIREEstimator pipeline, config and boundary variant."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import (
    BoundaryAwareEstimator,
    ReferenceGrid,
    VIREConfig,
    VIREEstimator,
    environment_by_name,
    paper_testbed_grid,
)
from repro.core.boundary import is_boundary_estimate
from repro.exceptions import ConfigurationError, EstimationError, ReadingError
from repro.experiments.measurement import MeasurementSpec, TrialSampler

from .conftest import make_clean_environment


def clean_reading_at(position, seed=0):
    sampler = TrialSampler(
        make_clean_environment(),
        paper_testbed_grid(),
        seed=seed,
        measurement=MeasurementSpec(n_reads=1),
    )
    return sampler.reading_for(position)


class TestVIREConfig:
    def test_defaults_valid(self):
        cfg = VIREConfig()
        assert cfg.subdivisions == 10
        assert cfg.threshold_mode == "adaptive"

    def test_with_changes(self):
        cfg = VIREConfig().with_(min_cells=7)
        assert cfg.min_cells == 7
        assert VIREConfig().min_cells == 1  # original untouched

    @pytest.mark.parametrize("kwargs", [
        dict(subdivisions=0),
        dict(interpolation="cubic"),
        dict(threshold_mode="auto"),
        dict(fixed_threshold_db=0.0),
        dict(min_cells=0),
        dict(min_votes=0),
        dict(w1_mode="softmax"),
        dict(connectivity=5),
        dict(empty_fallback="ignore"),
        dict(boundary_extension_cells=-1),
        dict(threshold_margin_db=-0.5),
        dict(target_total_tags=2),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            VIREConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        # NaN thresholds compare false everywhere: on the Env1 reading
        # below either one answered (1.5, 2.9) instead of (1.77, 1.91).
        dict(fixed_threshold_db=math.nan, threshold_mode="fixed"),
        dict(threshold_margin_db=math.nan),
        dict(fixed_threshold_db="1.0"),
        dict(threshold_margin_db=True),
        # Fractional counts failed at estimate time with a TypeError.
        dict(min_cells=1.5),
        dict(min_cells=True),
        dict(boundary_extension_cells=0.5),
        dict(boundary_extension_cells=False),
        dict(target_total_tags=900.0),
        dict(target_total_tags=True),
        dict(subdivisions=10.0),
        dict(min_votes=2.0),
        dict(min_votes=True),
        dict(connectivity=4.0),
        dict(connectivity=True),
        dict(use_w2=0),
        dict(use_w2="yes"),
    ])
    def test_non_numbers_and_non_integers_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            VIREConfig(**kwargs)

    def test_infinite_thresholds_turn_elimination_off(self):
        # +inf stays legal: every cell survives every reader's map.
        VIREConfig(threshold_mode="fixed", fixed_threshold_db=math.inf)
        VIREConfig(threshold_margin_db=math.inf)

    def test_fractional_quorum_cannot_split_scalar_and_batch(self, grid):
        # min_votes=1.5 once constructed, and on this reading the scalar
        # route answered (1.6576, 1.7562) and the batch route (1.6063,
        # 1.6694). Integral quorums keep the two bit for bit.
        with pytest.raises(ConfigurationError):
            VIREConfig(min_votes=1.5)
        reading = TrialSampler(environment_by_name("Env1"), grid, seed=0).reading_for(
            (1.3, 1.7)
        )
        for votes in (1, 2, 3, 4):
            vire = VIREEstimator(grid, VIREConfig(min_votes=votes))
            scalar = vire.estimate(reading).position
            (batch,) = vire.estimate_batch([reading])
            assert [v.hex() for v in scalar] == [v.hex() for v in batch.position]


class TestVIREEstimator:
    def test_near_exact_in_clean_channel(self, grid):
        vire = VIREEstimator(grid, VIREConfig(target_total_tags=900,
                                              threshold_margin_db=0.0))
        for pos in [(1.5, 1.5), (0.8, 2.3), (2.6, 0.7)]:
            err = vire.estimate(clean_reading_at(pos)).error_to(pos)
            assert err < 0.15, (pos, err)

    def test_estimate_within_virtual_lattice_hull(self, grid):
        vire = VIREEstimator(grid, VIREConfig())
        res = vire.estimate(clean_reading_at((1.2, 2.4)))
        xmin, ymin, xmax, ymax = grid.bounds
        assert xmin <= res.x <= xmax
        assert ymin <= res.y <= ymax

    def test_diagnostics_complete(self, grid):
        vire = VIREEstimator(grid, VIREConfig())
        diag = vire.estimate(clean_reading_at((1.0, 1.0))).diagnostics
        for key in ("threshold_db", "n_selected", "map_areas",
                    "total_virtual_tags", "selected_fraction"):
            assert key in diag
        assert len(diag["map_areas"]) == 4

    def test_target_total_tags_sizing(self, grid):
        vire = VIREEstimator(grid, VIREConfig(target_total_tags=900))
        assert vire.virtual_grid.total_tags == 961

    def test_subdivisions_sizing(self, grid):
        vire = VIREEstimator(grid, VIREConfig(subdivisions=4))
        assert vire.virtual_grid.shape == (13, 13)

    def test_layout_mismatch_rejected(self, grid):
        vire = VIREEstimator(grid, VIREConfig())
        other = ReferenceGrid(rows=4, cols=4, spacing_x=2.0)
        sampler = TrialSampler(
            make_clean_environment(), other, seed=0,
            measurement=MeasurementSpec(n_reads=1),
        )
        with pytest.raises(ReadingError, match="grid layout"):
            vire.estimate(sampler.reading_for((1.0, 1.0)))

    def test_fixed_threshold_mode(self, grid):
        vire = VIREEstimator(
            grid,
            VIREConfig(threshold_mode="fixed", fixed_threshold_db=2.0),
        )
        res = vire.estimate(clean_reading_at((1.5, 1.5)))
        assert res.diagnostics["threshold_db"] == 2.0

    def test_error_fallback_raises_on_empty(self, grid):
        vire = VIREEstimator(
            grid,
            VIREConfig(threshold_mode="fixed", fixed_threshold_db=1e-6,
                       empty_fallback="error"),
        )
        with pytest.raises(EstimationError, match="no candidate"):
            vire.estimate(clean_reading_at((1.37, 1.73)))

    def test_relax_fallback_recovers(self, grid):
        vire = VIREEstimator(
            grid,
            VIREConfig(threshold_mode="fixed", fixed_threshold_db=1e-6,
                       empty_fallback="relax"),
        )
        pos = (1.37, 1.73)
        res = vire.estimate(clean_reading_at(pos))
        assert res.diagnostics["fallback"] == "relax"
        assert res.error_to(pos) < 0.3

    def test_landmarc_fallback(self, grid):
        vire = VIREEstimator(
            grid,
            VIREConfig(threshold_mode="fixed", fixed_threshold_db=1e-6,
                       empty_fallback="landmarc"),
        )
        res = vire.estimate(clean_reading_at((1.37, 1.73)))
        assert res.diagnostics["fallback"] == "landmarc"
        assert res.estimator == "VIRE"

    def test_min_votes_relaxation(self, grid):
        strict = VIREEstimator(grid, VIREConfig(min_cells=5))
        majority = VIREEstimator(grid, VIREConfig(min_cells=5, min_votes=3))
        reading = clean_reading_at((2.0, 2.0))
        s_mask = strict.selection_mask(reading)
        m_mask = majority.selection_mask(reading)
        assert m_mask.sum() >= s_mask.sum()

    def test_adaptive_threshold_includes_margin(self, grid):
        tight = VIREEstimator(grid, VIREConfig(threshold_margin_db=0.0))
        wide = VIREEstimator(grid, VIREConfig(threshold_margin_db=2.0))
        reading = clean_reading_at((1.5, 1.5))
        t_thr = tight.estimate(reading).diagnostics["threshold_db"]
        w_thr = wide.estimate(reading).diagnostics["threshold_db"]
        assert w_thr == pytest.approx(t_thr + 2.0)

    def test_selection_mask_matches_estimate_path(self, grid):
        vire = VIREEstimator(grid, VIREConfig())
        reading = clean_reading_at((1.1, 0.9))
        mask = vire.selection_mask(reading)
        n_sel = vire.estimate(reading).diagnostics["n_selected"]
        assert mask.sum() == n_sel

    def test_deterministic(self, grid):
        vire = VIREEstimator(grid, VIREConfig())
        reading = clean_reading_at((2.2, 1.3))
        p1 = vire.estimate(reading).position
        p2 = vire.estimate(reading).position
        assert p1 == p2

    @pytest.mark.parametrize("kind", ["linear", "polynomial", "spline"])
    def test_all_interpolations_work_end_to_end(self, grid, kind):
        vire = VIREEstimator(grid, VIREConfig(interpolation=kind))
        pos = (1.4, 1.9)
        assert vire.estimate(clean_reading_at(pos)).error_to(pos) < 0.5

    def test_works_with_subset_of_readers(self, grid):
        vire = VIREEstimator(grid, VIREConfig())
        pos = (1.6, 1.6)
        reading = clean_reading_at(pos).subset_readers([0, 1, 2])
        assert vire.estimate(reading).error_to(pos) < 0.5


class TestBoundaryDetection:
    def test_interior_mask_not_boundary(self):
        sel = np.zeros((9, 9), dtype=bool)
        sel[4:6, 4:6] = True
        assert not is_boundary_estimate(sel)

    def test_edge_crowded_mask_is_boundary(self):
        sel = np.zeros((9, 9), dtype=bool)
        sel[0, 2:7] = True
        assert is_boundary_estimate(sel)

    def test_empty_mask_not_boundary(self):
        assert not is_boundary_estimate(np.zeros((5, 5), dtype=bool))

    def test_threshold_parameter(self):
        sel = np.zeros((9, 9), dtype=bool)
        sel[0, 0:3] = True   # 3 ring cells
        sel[4, 4:7] = True   # 3 interior cells
        assert is_boundary_estimate(sel, crowding_threshold=0.5)
        assert not is_boundary_estimate(sel, crowding_threshold=0.6)


class TestBoundaryAwareEstimator:
    def test_interior_tag_unaffected(self, grid):
        aware = BoundaryAwareEstimator(grid, VIREConfig())
        plain = VIREEstimator(grid, VIREConfig())
        reading = clean_reading_at((1.5, 1.5))
        a = aware.estimate(reading)
        assert a.diagnostics["boundary_detected"] is False
        np.testing.assert_allclose(a.position, plain.estimate(reading).position)

    def test_outside_tag_detected_and_improved(self, grid):
        pos = (3.25, 3.2)  # outside the grid, like Tag 9
        reading = clean_reading_at(pos)
        aware = BoundaryAwareEstimator(
            grid, VIREConfig(threshold_margin_db=0.5), extension_cells=1
        )
        plain = VIREEstimator(grid, VIREConfig(threshold_margin_db=0.5))
        res_aware = aware.estimate(reading)
        res_plain = plain.estimate(reading)
        assert res_aware.diagnostics["boundary_detected"] is True
        # The extended lattice can move beyond the hull; plain cannot.
        assert res_aware.error_to(pos) < res_plain.error_to(pos)

    def test_name(self, grid):
        assert BoundaryAwareEstimator(grid).name == "VIRE+boundary"
