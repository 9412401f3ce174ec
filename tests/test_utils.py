"""Tests for repro.utils: rng streams, validation, arrays, ascii."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, GeometryError
from repro.utils.arrays import as_point, as_points, pairwise_distances
from repro.utils.ascii import (
    bar_chart,
    format_table,
    line_chart,
    proximity_map_art,
)
from repro.utils.rng import derive_rng, derive_seed
from repro.utils.validation import (
    ensure_finite,
    ensure_in_range,
    ensure_non_negative,
    ensure_positive,
    ensure_positive_int,
)


class TestRng:
    def test_same_key_same_stream(self):
        a = derive_rng(42, "shadowing", 0).standard_normal(5)
        b = derive_rng(42, "shadowing", 0).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_different_streams(self):
        a = derive_rng(42, "shadowing", 0).standard_normal(5)
        b = derive_rng(42, "shadowing", 1).standard_normal(5)
        assert not np.allclose(a, b)

    def test_different_seeds_different_streams(self):
        a = derive_rng(1, "x").standard_normal(5)
        b = derive_rng(2, "x").standard_normal(5)
        assert not np.allclose(a, b)

    def test_string_keys_stable(self):
        # CRC32-based key mapping must be stable across calls.
        s1 = derive_seed(7, "fading").entropy
        s2 = derive_seed(7, "fading").entropy
        assert s1 == s2

class TestValidation:
    def test_ensure_positive_accepts(self):
        assert ensure_positive(2.5, "x") == 2.5

    @pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf"), "s", True])
    def test_ensure_positive_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            ensure_positive(bad, "x")

    def test_ensure_non_negative_zero_ok(self):
        assert ensure_non_negative(0.0, "x") == 0.0

    def test_ensure_non_negative_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            ensure_non_negative(-0.1, "x")

    def test_ensure_positive_int(self):
        assert ensure_positive_int(3, "k") == 3

    @pytest.mark.parametrize("bad", [0, 2.5, True, "3"])
    def test_ensure_positive_int_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            ensure_positive_int(bad, "k")

    def test_ensure_positive_int_minimum(self):
        assert ensure_positive_int(0, "k", minimum=0) == 0
        with pytest.raises(ConfigurationError):
            ensure_positive_int(1, "k", minimum=2)

    def test_ensure_in_range_inclusive_bounds(self):
        assert ensure_in_range(0.0, "x", 0.0, 1.0) == 0.0
        assert ensure_in_range(1.0, "x", 0.0, 1.0) == 1.0

    def test_ensure_in_range_exclusive(self):
        with pytest.raises(ConfigurationError):
            ensure_in_range(0.0, "x", 0.0, 1.0, inclusive=False)

    def test_ensure_finite_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            ensure_finite([1.0, np.nan], "arr")

    def test_ensure_finite_returns_float64(self):
        out = ensure_finite([1, 2], "arr")
        assert out.dtype == np.float64


class TestArrays:
    def test_as_point_roundtrip(self):
        np.testing.assert_array_equal(as_point((1, 2)), [1.0, 2.0])

    def test_as_point_rejects_3d(self):
        with pytest.raises(GeometryError):
            as_point((1, 2, 3))

    def test_as_points_promotes_single(self):
        assert as_points((1.0, 2.0)).shape == (1, 2)

    def test_as_points_rejects_nan(self):
        with pytest.raises(GeometryError):
            as_points([[1.0, np.nan]])

    def test_pairwise_against_manual(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 0.0], [0.0, 2.0], [3.0, 4.0]])
        d = pairwise_distances(a, b)
        assert d.shape == (2, 3)
        assert d[0, 2] == pytest.approx(5.0)
        assert d[1, 0] == pytest.approx(1.0)

    @given(
        st.lists(
            st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
            min_size=1, max_size=6,
        )
    )
    def test_pairwise_self_diagonal_zero(self, pts):
        arr = np.asarray(pts)
        d = pairwise_distances(arr, arr)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-9)

class TestAscii:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "2.500" in out

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_bar_chart_scales_to_width(self):
        out = bar_chart(["x", "y"], [1.0, 2.0], width=10)
        assert out.splitlines()[1].count("#") == 10

    def test_bar_chart_handles_zeros(self):
        out = bar_chart(["x"], [0.0])
        assert "#" not in out

    def test_bar_chart_rejects_mismatched(self):
        with pytest.raises(ValueError):
            bar_chart(["x"], [1.0, 2.0])

    def test_line_chart_monotone_data(self):
        out = line_chart([1, 2, 3, 4], [1, 2, 3, 4], height=4, width=8)
        assert "*" in out
        assert "y_max=4.000" in out

    def test_line_chart_empty_safe(self):
        assert "no finite data" in line_chart([], [], title=None) or line_chart([], [])

    def test_proximity_map_art_orientation(self):
        mask = np.zeros((2, 3), dtype=bool)
        mask[0, 0] = True  # bottom-left in grid coordinates
        art = proximity_map_art(mask)
        rows = art.splitlines()
        assert rows[-1][0] == "#"  # rendered at the bottom

