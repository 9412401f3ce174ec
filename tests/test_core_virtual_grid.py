"""Tests for the virtual grid and the interpolation schemes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import ReferenceGrid, VirtualGrid, paper_testbed_grid
from repro.core.interpolation import (
    BilinearInterpolator,
    PolynomialInterpolator,
    SplineInterpolator,
    make_interpolator,
)
from repro.exceptions import ConfigurationError

from .conftest import real_tag_mask


@pytest.fixture
def vgrid(grid):
    return VirtualGrid(grid, subdivisions=10)


class TestVirtualGrid:
    def test_paper_operating_point(self, grid):
        vg = VirtualGrid(grid, subdivisions=10)
        assert vg.shape == (31, 31)
        assert vg.total_tags == 961  # the paper's N² ~ 900 region

    def test_n1_coincides_with_real_grid(self, grid):
        vg = VirtualGrid(grid, subdivisions=1)
        np.testing.assert_allclose(vg.positions(), grid.tag_positions())

    def test_pitch(self, grid):
        vg = VirtualGrid(grid, subdivisions=4)
        assert vg.pitch == (0.25, 0.25)

    def test_positions_cover_grid_bounds(self, vgrid, grid):
        pos = vgrid.positions()
        assert pos[:, 0].min() == pytest.approx(grid.bounds[0])
        assert pos[:, 0].max() == pytest.approx(grid.bounds[2])
        assert pos[:, 1].min() == pytest.approx(grid.bounds[1])
        assert pos[:, 1].max() == pytest.approx(grid.bounds[3])

    def test_real_tag_mask_counts(self, vgrid, grid):
        mask = real_tag_mask(vgrid)
        assert mask.sum() == grid.n_tags

    def test_real_tag_mask_positions(self, grid):
        vg = VirtualGrid(grid, subdivisions=3)
        mask = real_tag_mask(vg)
        pos = vg.positions().reshape(*vg.shape, 2)
        real = pos[mask]
        np.testing.assert_allclose(
            np.sort(real, axis=0), np.sort(grid.tag_positions(), axis=0)
        )

    def test_extension_adds_ring(self, grid):
        vg = VirtualGrid(grid, subdivisions=4, extension_cells=1)
        assert vg.shape == (13 + 8, 13 + 8)
        ys, xs = vg.axis_coordinates()
        assert xs.min() == pytest.approx(-1.0)
        assert xs.max() == pytest.approx(4.0)

    def test_for_target_count_reaches_target(self, grid):
        vg = VirtualGrid.for_target_count(grid, 900)
        assert vg.total_tags >= 900
        smaller = VirtualGrid(grid, vg.subdivisions - 1)
        assert smaller.total_tags < 900

    def test_for_target_count_minimum(self, grid):
        with pytest.raises(ConfigurationError):
            VirtualGrid.for_target_count(grid, 4)

    def test_for_target_count_unreachable(self, grid):
        with pytest.raises(ConfigurationError):
            VirtualGrid.for_target_count(grid, 10**9, max_subdivisions=8)

    def test_rectangular_grid(self):
        g = ReferenceGrid(rows=3, cols=5)
        vg = VirtualGrid(g, subdivisions=2)
        assert vg.shape == (5, 9)

    def test_fractional_indices_align(self, grid):
        vg = VirtualGrid(grid, subdivisions=2)
        fi, fj = vg.fractional_indices()
        np.testing.assert_allclose(fi, np.arange(7) / 2.0)


def _lattice_strategy():
    return arrays(
        np.float64,
        (4, 4),
        elements=st.floats(-100.0, -40.0, allow_nan=False),
    )


class TestBilinear:
    def test_exact_at_real_tags(self, grid):
        rng = np.random.default_rng(0)
        lattice = rng.uniform(-90, -50, (4, 4))
        vg = VirtualGrid(grid, subdivisions=5)
        out = BilinearInterpolator().interpolate(lattice, vg)
        mask = real_tag_mask(vg)
        np.testing.assert_allclose(out[mask], lattice.ravel())

    def test_linear_function_reproduced_exactly(self, grid):
        # A plane a + b*x + c*y is interpolated with zero error everywhere.
        vg = VirtualGrid(grid, subdivisions=7)
        pos = grid.tag_positions()
        plane = (-60.0 + 2.0 * pos[:, 0] - 3.0 * pos[:, 1]).reshape(4, 4)
        out = BilinearInterpolator().interpolate(plane, vg)
        vpos = vg.positions()
        expected = (-60.0 + 2.0 * vpos[:, 0] - 3.0 * vpos[:, 1]).reshape(vg.shape)
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_extension_extrapolates_plane(self, grid):
        vg = VirtualGrid(grid, subdivisions=4, extension_cells=1)
        pos = grid.tag_positions()
        plane = (1.0 * pos[:, 0] + 2.0 * pos[:, 1]).reshape(4, 4)
        out = BilinearInterpolator().interpolate(plane, vg)
        vpos = vg.positions()
        expected = (1.0 * vpos[:, 0] + 2.0 * vpos[:, 1]).reshape(vg.shape)
        np.testing.assert_allclose(out, expected, atol=1e-9)

    @given(_lattice_strategy())
    @settings(max_examples=30, deadline=None)
    def test_bounded_by_cell_corners(self, lattice):
        grid = paper_testbed_grid()
        vg = VirtualGrid(grid, subdivisions=4)
        out = BilinearInterpolator().interpolate(lattice, vg)
        assert out.min() >= lattice.min() - 1e-9
        assert out.max() <= lattice.max() + 1e-9

    def test_matches_paper_1d_formula(self, grid):
        """The paper's horizontal-line formula:
        S(T_pb) = (p*S(a+n,b) + (n+1-p)*S(a,b)) / (n+1) with the paper's
        n+1 subdivisions convention equals bilinear along lattice rows."""
        rng = np.random.default_rng(1)
        lattice = rng.uniform(-90, -50, (4, 4))
        n = 5
        vg = VirtualGrid(grid, subdivisions=n)
        out = BilinearInterpolator().interpolate(lattice, vg)
        # Row 0 of the virtual lattice lies on the real row 0; virtual
        # column j between real cols b and b+1 at fraction q/n.
        for j in range(vg.v_cols):
            b, q = divmod(j, n)
            if b >= 3:
                b, q = 2, n
            expected = lattice[0, b] + (lattice[0, b + 1] - lattice[0, b]) * q / n
            assert out[0, j] == pytest.approx(expected)

    def test_wrong_lattice_shape_rejected(self, grid):
        vg = VirtualGrid(grid, subdivisions=2)
        with pytest.raises(ConfigurationError):
            BilinearInterpolator().interpolate(np.zeros((3, 4)), vg)

    def test_nan_lattice_rejected(self, grid):
        vg = VirtualGrid(grid, subdivisions=2)
        lattice = np.zeros((4, 4))
        lattice[0, 0] = np.nan
        with pytest.raises(ConfigurationError):
            BilinearInterpolator().interpolate(lattice, vg)


class TestPolynomial:
    def test_exact_at_real_tags(self, grid):
        rng = np.random.default_rng(2)
        lattice = rng.uniform(-90, -50, (4, 4))
        vg = VirtualGrid(grid, subdivisions=6)
        out = PolynomialInterpolator().interpolate(lattice, vg)
        mask = real_tag_mask(vg)
        np.testing.assert_allclose(out[mask], lattice.ravel(), atol=1e-8)

    def test_reproduces_cubic_surface(self, grid):
        # Degree-3 separable polynomial data is reproduced exactly.
        vg = VirtualGrid(grid, subdivisions=5)
        idx = np.arange(4.0)
        fi, fj = vg.fractional_indices()
        data = np.outer(idx**3 - idx, 2.0 + idx**2)
        out = PolynomialInterpolator().interpolate(data, vg)
        expected = np.outer(fi**3 - fi, 2.0 + fj**2)
        np.testing.assert_allclose(out, expected, atol=1e-7)

    def test_large_grid_refused(self):
        g = ReferenceGrid(rows=20, cols=20)
        vg = VirtualGrid(g, subdivisions=2)
        with pytest.raises(ConfigurationError, match="unusable"):
            PolynomialInterpolator().interpolate(np.zeros((20, 20)), vg)


class TestSpline:
    def test_exact_at_real_tags(self, grid):
        rng = np.random.default_rng(3)
        lattice = rng.uniform(-90, -50, (4, 4))
        vg = VirtualGrid(grid, subdivisions=6)
        out = SplineInterpolator().interpolate(lattice, vg)
        mask = real_tag_mask(vg)
        np.testing.assert_allclose(out[mask], lattice.ravel(), atol=1e-8)

    def test_degrades_to_linear_on_two_point_axis(self):
        g = ReferenceGrid(rows=2, cols=4)
        vg = VirtualGrid(g, subdivisions=3)
        lattice = np.arange(8.0).reshape(2, 4)
        out = SplineInterpolator().interpolate(lattice, vg)
        bil = BilinearInterpolator().interpolate(lattice, vg)
        # Along the 2-row axis both must be linear; compare a column.
        np.testing.assert_allclose(out[:, 0], bil[:, 0], atol=1e-9)

    def test_invalid_degree(self):
        with pytest.raises(ConfigurationError):
            SplineInterpolator(degree=0)


class TestFactory:
    @pytest.mark.parametrize("kind,cls", [
        ("linear", BilinearInterpolator),
        ("polynomial", PolynomialInterpolator),
        ("spline", SplineInterpolator),
    ])
    def test_factory_dispatch(self, kind, cls):
        assert isinstance(make_interpolator(kind), cls)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            make_interpolator("nearest")

    @pytest.mark.parametrize("kind", ["linear", "polynomial", "spline"])
    def test_all_schemes_agree_on_plane(self, kind, grid):
        vg = VirtualGrid(grid, subdivisions=4)
        pos = grid.tag_positions()
        plane = (0.5 * pos[:, 0] - 1.5 * pos[:, 1]).reshape(4, 4)
        out = make_interpolator(kind).interpolate(plane, vg)
        vpos = vg.positions()
        expected = (0.5 * vpos[:, 0] - 1.5 * vpos[:, 1]).reshape(vg.shape)
        np.testing.assert_allclose(out, expected, atol=1e-7)
