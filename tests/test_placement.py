"""Tests for reader-placement evaluation and greedy optimization."""

from __future__ import annotations

import numpy as np
import pytest

from repro import corner_reader_positions
from repro.exceptions import ConfigurationError
from repro.experiments.placement import (
    candidate_reader_positions,
    evaluate_placement,
    greedy_reader_placement,
)

from .conftest import make_clean_environment

pytestmark = pytest.mark.slow


class TestCandidates:
    def test_corners_always_present(self, grid):
        cand = candidate_reader_positions(grid, include_edge_midpoints=False)
        corners = corner_reader_positions(grid, margin=1.0)
        assert cand.shape == (4, 2)
        np.testing.assert_allclose(np.sort(cand, axis=0), np.sort(corners, axis=0))

    def test_edge_midpoints_added(self, grid):
        cand = candidate_reader_positions(grid)
        assert cand.shape == (8, 2)

    def test_inset_corners_added(self, grid):
        cand = candidate_reader_positions(grid, include_inset_corners=True)
        assert cand.shape == (12, 2)

    def test_negative_margin_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            candidate_reader_positions(grid, margin_m=-1.0)


class TestEvaluatePlacement:
    def test_corner_layout_scores_well_in_clean_env(self, grid):
        env = make_clean_environment()
        err = evaluate_placement(
            env, grid, corner_reader_positions(grid),
            n_trials=2, validation_per_axis=3,
        )
        assert err < 0.2

    def test_degenerate_colinear_layout_scores_worse(self, grid):
        env = make_clean_environment()
        corners = corner_reader_positions(grid)
        good = evaluate_placement(
            env, grid, corners, n_trials=2, validation_per_axis=3
        )
        # Two readers on the same side: poor geometry along one axis.
        colinear = np.array([[-1.0, -1.0], [0.5, -1.0], [2.5, -1.0], [4.0, -1.0]])
        bad = evaluate_placement(
            env, grid, colinear, n_trials=2, validation_per_axis=3
        )
        assert bad > good

    def test_reader_outside_room_rejected(self, grid):
        env = make_clean_environment()
        layout = np.array([[0.0, 0.0], [100.0, 100.0]])
        with pytest.raises(ConfigurationError, match="outside"):
            evaluate_placement(env, grid, layout, n_trials=1)

    def test_needs_two_readers(self, grid):
        env = make_clean_environment()
        with pytest.raises(ConfigurationError):
            evaluate_placement(env, grid, np.array([[0.0, 0.0]]), n_trials=1)


class TestGreedyPlacement:
    def test_selects_requested_count(self, grid):
        env = make_clean_environment()
        cand = candidate_reader_positions(grid, include_edge_midpoints=False)
        result = greedy_reader_placement(
            env, grid, cand, n_readers=3, n_trials=1
        )
        assert result.selected_positions.shape == (3, 2)
        assert len(result.selected_indices) == 3
        assert len(set(result.selected_indices)) == 3

    def test_error_trace_monotone_improvement(self, grid):
        env = make_clean_environment()
        cand = candidate_reader_positions(grid)
        result = greedy_reader_placement(
            env, grid, cand, n_readers=4, n_trials=1
        )
        # Adding readers should never make the chosen-set error much
        # worse (greedy evaluates and picks the best addition).
        assert result.error_trace[-1] <= result.error_trace[0] + 0.05

    def test_invalid_counts_rejected(self, grid):
        env = make_clean_environment()
        cand = candidate_reader_positions(grid, include_edge_midpoints=False)
        with pytest.raises(ConfigurationError):
            greedy_reader_placement(env, grid, cand, n_readers=1)
        with pytest.raises(ConfigurationError):
            greedy_reader_placement(env, grid, cand, n_readers=9)
