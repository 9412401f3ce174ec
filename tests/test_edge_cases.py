"""Precision tests for edge paths found during the final review pass."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ReferenceGrid, VirtualGrid
from repro.core.interpolation import BilinearInterpolator

from .conftest import make_clean_environment, real_tag_mask


class TestVirtualGridExtension:
    def test_real_tag_mask_excludes_extension_ring(self, grid):
        vg = VirtualGrid(grid, subdivisions=2, extension_cells=1)
        mask = real_tag_mask(vg)
        # Only the 16 real tags are marked even though the lattice extends
        # beyond the grid.
        assert mask.sum() == grid.n_tags
        # And none of them sit in the extension ring.
        ext = vg.extension_cells * vg.subdivisions
        assert not mask[:ext, :].any()
        assert not mask[-ext:, :].any()
        assert not mask[:, :ext].any()
        assert not mask[:, -ext:].any()

    def test_total_tags_includes_extension(self, grid):
        plain = VirtualGrid(grid, subdivisions=3)
        extended = VirtualGrid(grid, subdivisions=3, extension_cells=1)
        assert extended.total_tags > plain.total_tags
        assert extended.shape == (plain.shape[0] + 6, plain.shape[1] + 6)

    def test_extension_positions_outside_bounds(self, grid):
        vg = VirtualGrid(grid, subdivisions=2, extension_cells=1)
        pos = vg.positions()
        assert pos[:, 0].min() == pytest.approx(-1.0)
        assert pos[:, 1].max() == pytest.approx(4.0)


class TestChannelVectorAttenuation:
    def test_per_position_extra_attenuation(self, readers):
        env = make_clean_environment()
        channel = env.build_channel(readers, seed=0)
        pts = np.array([[1.0, 1.0], [2.0, 2.0]])
        rng1, rng2 = np.random.default_rng(0), np.random.default_rng(0)
        base = channel.sample_rssi(0, pts, rng1, n_reads=1)
        dimmed = channel.sample_rssi(
            0, pts, rng2, n_reads=1, extra_attenuation_db=np.array([3.0, 7.0])
        )
        np.testing.assert_allclose(base[0] - dimmed[0], 3.0, atol=1e-9)
        np.testing.assert_allclose(base[1] - dimmed[1], 7.0, atol=1e-9)


class TestNonSquareGridEndToEnd:
    def test_rectangular_grid_vire_works(self):
        """§6: 'The requirement of having a square real grid is not
        necessary' — a 3x5 rectangular grid localizes fine."""
        from repro import VIREConfig, VIREEstimator
        from repro.experiments.measurement import MeasurementSpec, TrialSampler

        grid = ReferenceGrid(rows=3, cols=5, spacing_x=1.0, spacing_y=1.0)
        env = make_clean_environment()
        sampler = TrialSampler(
            env, grid, seed=0, measurement=MeasurementSpec(n_reads=2)
        )
        vire = VIREEstimator(grid, VIREConfig(subdivisions=8))
        for pos in [(1.3, 0.8), (3.2, 1.4), (0.6, 1.7)]:
            reading = sampler.reading_for(pos)
            assert vire.estimate(reading).error_to(pos) < 0.25, pos

    def test_anisotropic_spacing_vire_works(self):
        from repro import VIREConfig, VIREEstimator
        from repro.experiments.measurement import MeasurementSpec, TrialSampler

        grid = ReferenceGrid(rows=4, cols=4, spacing_x=0.5, spacing_y=1.5)
        env = make_clean_environment()
        sampler = TrialSampler(
            env, grid, seed=0, measurement=MeasurementSpec(n_reads=2)
        )
        vire = VIREEstimator(grid, VIREConfig(subdivisions=8))
        pos = (0.7, 2.2)
        assert vire.estimate(sampler.reading_for(pos)).error_to(pos) < 0.35


class TestInterpolatorAnisotropic:
    def test_bilinear_exact_on_anisotropic_plane(self):
        grid = ReferenceGrid(rows=3, cols=4, spacing_x=0.5, spacing_y=2.0,
                             origin=(1.0, -1.0))
        vg = VirtualGrid(grid, subdivisions=4)
        pos = grid.tag_positions()
        plane = (3.0 * pos[:, 0] - 0.7 * pos[:, 1] + 5.0).reshape(3, 4)
        out = BilinearInterpolator().interpolate(plane, vg)
        vpos = vg.positions()
        expected = (3.0 * vpos[:, 0] - 0.7 * vpos[:, 1] + 5.0).reshape(vg.shape)
        np.testing.assert_allclose(out, expected, atol=1e-9)
