"""Tests for proximity maps, elimination, and the adaptive threshold."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.elimination import eliminate, vote_map
from repro.core.proximity import ProximityMap, build_proximity_maps, rssi_deviations
from repro.core.threshold import AdaptiveThresholdSelector, minimal_feasible_threshold
from repro.exceptions import ConfigurationError


def deviations_strategy(k=3, rows=5, cols=5):
    return arrays(
        np.float64,
        (k, rows, cols),
        elements=st.floats(0.0, 20.0, allow_nan=False),
    )


class TestRssiDeviations:
    def test_absolute_difference(self):
        virtual = np.zeros((2, 3, 3))
        virtual[0] = -70.0
        virtual[1] = -60.0
        dev = rssi_deviations(virtual, [-65.0, -65.0])
        np.testing.assert_allclose(dev[0], 5.0)
        np.testing.assert_allclose(dev[1], 5.0)

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            rssi_deviations(np.zeros((2, 3)), [0.0, 0.0])
        with pytest.raises(ConfigurationError):
            rssi_deviations(np.zeros((2, 3, 3)), [0.0])


class TestProximityMap:
    def test_mask_threshold_semantics(self):
        dev = np.array([[[0.5, 1.5], [1.0, 3.0]]])
        maps = build_proximity_maps(dev, 1.0)
        np.testing.assert_array_equal(
            maps[0].mask, [[True, False], [True, False]]
        )
        assert maps[0].area == 2

    def test_per_reader_thresholds(self):
        dev = np.ones((2, 2, 2))
        maps = build_proximity_maps(dev, [0.5, 2.0])
        assert maps[0].area == 0
        assert maps[1].area == 4

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            build_proximity_maps(np.ones((1, 2, 2)), -1.0)

    def test_map_validation(self):
        with pytest.raises(ConfigurationError):
            ProximityMap(mask=np.zeros(3, dtype=bool), threshold_db=1.0,
                         reader_index=0)


class TestEliminate:
    def _maps(self, masks):
        return [
            ProximityMap(mask=np.asarray(m, dtype=bool), threshold_db=1.0,
                         reader_index=i)
            for i, m in enumerate(masks)
        ]

    def test_strict_intersection(self):
        maps = self._maps([
            [[1, 1], [0, 1]],
            [[1, 0], [0, 1]],
        ])
        out = eliminate(maps)
        np.testing.assert_array_equal(out, [[True, False], [False, True]])

    def test_majority_vote(self):
        maps = self._maps([
            [[1, 0]],
            [[1, 1]],
            [[0, 1]],
        ])
        out = eliminate(maps, min_votes=2)
        np.testing.assert_array_equal(out, [[True, True]])

    def test_vote_map_counts(self):
        maps = self._maps([[[1, 0]], [[1, 1]]])
        np.testing.assert_array_equal(vote_map(maps), [[2, 1]])

    def test_empty_result_possible(self):
        maps = self._maps([[[1, 0]], [[0, 1]]])
        assert not eliminate(maps).any()

    def test_min_votes_bounds(self):
        maps = self._maps([[[1, 0]]])
        with pytest.raises(ConfigurationError):
            eliminate(maps, min_votes=2)

    def test_shape_mismatch_rejected(self):
        maps = self._maps([[[1, 0]], [[1, 0], [0, 1]]])
        with pytest.raises(ConfigurationError, match="shapes differ"):
            eliminate(maps)

    def test_no_maps_rejected(self):
        with pytest.raises(ConfigurationError):
            eliminate([])

    @given(deviations_strategy())
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_threshold(self, dev):
        """A larger threshold never removes a surviving cell."""
        small = eliminate(build_proximity_maps(dev, 2.0))
        large = eliminate(build_proximity_maps(dev, 5.0))
        assert np.all(large[small])


class TestMinimalFeasibleThreshold:
    def test_single_cell_example(self):
        dev = np.array([
            [[3.0, 1.0], [4.0, 2.0]],
            [[2.0, 5.0], [1.0, 2.0]],
        ])
        # per-cell max over readers: [[3, 5], [4, 2]] -> min = 2.
        assert minimal_feasible_threshold(dev) == pytest.approx(2.0)

    def test_min_cells_takes_kth_smallest(self):
        dev = np.array([
            [[3.0, 1.0], [4.0, 2.0]],
            [[2.0, 5.0], [1.0, 2.0]],
        ])
        assert minimal_feasible_threshold(dev, min_cells=2) == pytest.approx(3.0)

    @given(deviations_strategy())
    @settings(max_examples=40, deadline=None)
    def test_feasibility_and_minimality(self, dev):
        thr = minimal_feasible_threshold(dev, min_cells=3)
        selected = eliminate(build_proximity_maps(dev, thr))
        assert selected.sum() >= 3
        tighter = eliminate(build_proximity_maps(dev, max(thr - 1e-6, 0.0)))
        # The threshold is minimal: any epsilon tighter loses feasibility
        # (unless ties make several cells share the same worst deviation).
        assert tighter.sum() <= selected.sum()

    def test_min_cells_exceeding_lattice_rejected(self):
        with pytest.raises(ConfigurationError):
            minimal_feasible_threshold(np.zeros((1, 2, 2)), min_cells=5)

    def test_negative_deviations_rejected(self):
        with pytest.raises(ConfigurationError):
            minimal_feasible_threshold(-np.ones((1, 2, 2)))


class TestAdaptiveSelector:
    def test_iterative_matches_closed_form(self):
        rng = np.random.default_rng(0)
        dev = rng.uniform(0.0, 8.0, (4, 9, 9))
        selector = AdaptiveThresholdSelector(step_db=0.02, min_cells=1)
        closed = selector.closed_form(dev)
        iterative = selector.iterative(dev)
        # The step-wise reduction lands within one step of the closed form.
        assert iterative == pytest.approx(closed, abs=selector.step_db + 1e-9)

    def test_iterative_feasible(self):
        rng = np.random.default_rng(1)
        dev = rng.uniform(0.0, 8.0, (3, 7, 7))
        selector = AdaptiveThresholdSelector(step_db=0.05, min_cells=4)
        thr = selector.iterative(dev)
        selected = eliminate(build_proximity_maps(dev, thr))
        assert selected.sum() >= 4

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            AdaptiveThresholdSelector(step_db=0.0)
        with pytest.raises(ConfigurationError):
            AdaptiveThresholdSelector(min_cells=0)

    def test_wide_range_does_not_exhaust_iterations(self):
        """A huge max-to-minimal deviation span used to hit the
        ``max_iterations`` cap at ``step_db`` granularity and return a
        threshold far above the feasible minimum; the closed-form clamp
        makes the descent O(1) in the range."""
        dev = np.full((2, 5, 5), 0.5)
        dev[0, 0, 0] = 50_000.0  # one pathological cell widens the start
        dev[1, 0, 0] = 50_000.0
        selector = AdaptiveThresholdSelector(step_db=0.05, min_cells=1)
        closed = selector.closed_form(dev)
        iterative = selector.iterative(dev)
        assert iterative == pytest.approx(closed, abs=selector.step_db + 1e-9)
        # Naive descent would have needed ~1e6 iterations (> the cap).
        assert (50_000.0 - closed) / selector.step_db > selector.max_iterations

    def test_iterative_matches_closed_form_on_masked_inputs(self):
        """NaN (unknown) deviations: both procedures skip unknown cells
        and still agree within one step."""
        rng = np.random.default_rng(7)
        dev = rng.uniform(0.0, 6.0, (3, 8, 8))
        mask = rng.random((3, 8, 8)) < 0.2
        dev[mask] = np.nan
        selector = AdaptiveThresholdSelector(step_db=0.05, min_cells=2)
        closed = selector.closed_form(dev)
        iterative = selector.iterative(dev)
        assert np.isfinite(iterative)
        assert iterative == pytest.approx(closed, abs=selector.step_db + 1e-9)

    def test_iterative_infeasible_masked_raises(self):
        dev = np.full((2, 3, 3), np.nan)
        selector = AdaptiveThresholdSelector()
        with pytest.raises(ConfigurationError):
            selector.iterative(dev)
