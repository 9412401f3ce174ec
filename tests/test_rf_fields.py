"""Tests for shadowing fields, multipath, and fading."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ChannelError
from repro.geometry.rooms import rectangular_room
from repro.geometry.vector import Segment
from repro.rf.fading import NoFading, RicianFading
from repro.rf.multipath import MultipathModel, MultipathSpec
from repro.rf.shadowing import ShadowingField, ShadowingSpec


@pytest.fixture
def room():
    return rectangular_room(10.0, 8.0, origin=(-2.0, -2.0), reflectivity=0.7)


class TestShadowingSpec:
    def test_default_resolution_quarter_of_correlation(self):
        spec = ShadowingSpec(correlation_length_m=2.0)
        assert spec.effective_resolution_m == pytest.approx(0.5)

    def test_explicit_resolution_wins(self):
        spec = ShadowingSpec(resolution_m=0.3)
        assert spec.effective_resolution_m == 0.3

    def test_common_fraction_bounds(self):
        with pytest.raises(ValueError):
            ShadowingSpec(common_fraction=1.5)


class TestShadowingField:
    def test_deterministic_given_rng_seed(self, room):
        spec = ShadowingSpec(sigma_db=3.0, correlation_length_m=2.0)
        f1 = ShadowingField(room, spec, np.random.default_rng(7))
        f2 = ShadowingField(room, spec, np.random.default_rng(7))
        pts = np.array([[0.0, 0.0], [3.3, 1.2], [-1.0, 5.0]])
        np.testing.assert_array_equal(f1.value_at(pts), f2.value_at(pts))

    def test_sigma_realized_on_lattice(self, room):
        spec = ShadowingSpec(sigma_db=3.0, correlation_length_m=1.5)
        field = ShadowingField(room, spec, np.random.default_rng(0))
        xx, yy = np.meshgrid(field._xs, field._ys)
        lattice = field.value_at(np.column_stack([xx.ravel(), yy.ravel()]))
        assert lattice.std() == pytest.approx(3.0, rel=1e-6)

    def test_zero_sigma_gives_zero_field(self, room):
        spec = ShadowingSpec(sigma_db=0.0)
        field = ShadowingField(room, spec, np.random.default_rng(0))
        pts = np.random.default_rng(1).uniform(-1, 5, (20, 2))
        np.testing.assert_array_equal(field.value_at(pts), 0.0)

    def test_spatial_correlation_nearby_similar(self, room):
        spec = ShadowingSpec(sigma_db=4.0, correlation_length_m=3.0)
        field = ShadowingField(room, spec, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        base = rng.uniform(0, 4, (200, 2))
        near = base + rng.normal(0, 0.05, base.shape)
        far = rng.uniform(0, 4, (200, 2))
        v0 = field.value_at(base)
        diff_near = np.abs(field.value_at(near) - v0).mean()
        diff_far = np.abs(field.value_at(far) - v0).mean()
        assert diff_near < diff_far / 3

    def test_single_point_query(self, room):
        field = ShadowingField(room, ShadowingSpec(), np.random.default_rng(0))
        out = field.value_at(np.array([1.0, 1.0]))
        assert np.isscalar(out) or out.shape == ()

    def test_query_outside_padding_extrapolates(self, room):
        field = ShadowingField(
            room, ShadowingSpec(padding_m=1.0), np.random.default_rng(0)
        )
        # Far outside the padded lattice: linear extrapolation, finite.
        assert np.isfinite(field.value_at(np.array([[50.0, 50.0]]))).all()

    def test_bad_query_shape_rejected(self, room):
        field = ShadowingField(room, ShadowingSpec(), np.random.default_rng(0))
        with pytest.raises(ChannelError):
            field.value_at(np.zeros((2, 3)))


def zero_phases(model) -> list[float]:
    """One zero reflection phase per reflective wall (ideal geometry)."""
    return [0.0] * len(model.room.reflective_walls)


def excess_gain(model, reader_pos, pts):
    """The channel's route: the reader's image set, zero wall phases."""
    return model.prepare_reader(reader_pos, zero_phases(model)).excess_gain_db(
        pts
    )


class TestMultipath:
    def test_disabled_returns_zero(self, room):
        model = MultipathModel(room, MultipathSpec(max_reflections=0))
        pts = np.random.default_rng(0).uniform(0, 4, (10, 2))
        np.testing.assert_array_equal(
            excess_gain(model, (0.0, 0.0), pts), 0.0
        )

    def test_no_reflective_walls_returns_zero(self):
        open_room = rectangular_room(
            10, 10, reflectivity=0.0, name="anechoic"
        )
        model = MultipathModel(open_room, MultipathSpec(max_reflections=1))
        pts = np.array([[2.0, 2.0]])
        np.testing.assert_array_equal(
            excess_gain(model, (5.0, 5.0), pts), 0.0
        )

    def test_excess_bounded_by_clamp(self, room):
        spec = MultipathSpec(max_reflections=2, coherence=1.0)
        model = MultipathModel(room, spec)
        pts = np.random.default_rng(0).uniform(-1.5, 7.5, (300, 2))
        gain = excess_gain(model, (0.0, 0.0), pts)
        assert gain.min() >= spec.min_excess_db
        assert gain.max() <= spec.max_excess_db

    def test_incoherent_sum_nonnegative_gain(self, room):
        # coherence=0: powers add, so the gain over direct-only is >= 0.
        model = MultipathModel(room, MultipathSpec(max_reflections=1, coherence=0.0))
        pts = np.random.default_rng(1).uniform(-1, 7, (100, 2))
        gain = excess_gain(model, (1.0, 1.0), pts)
        assert np.all(gain >= -1e-9)

    def test_coherent_creates_spatial_structure(self, room):
        model = MultipathModel(room, MultipathSpec(max_reflections=1, coherence=1.0))
        xs = np.linspace(0.0, 4.0, 200)
        pts = np.column_stack([xs, np.full_like(xs, 1.0)])
        gain = excess_gain(model, (-1.0, 1.0), pts)
        assert gain.std() > 0.5  # fringes visible

    def test_first_order_image_count(self, room):
        model = MultipathModel(room, MultipathSpec(max_reflections=1))
        images = model.prepare_reader((0.0, 0.0), zero_phases(model))
        assert len(images.images) == len(room.reflective_walls)

    def test_second_order_image_count(self, room):
        model = MultipathModel(room, MultipathSpec(max_reflections=2))
        n = len(room.reflective_walls)
        images = model.prepare_reader((0.0, 0.0), zero_phases(model))
        assert len(images.images) == n + n * (n - 1)

    def test_wall_phases_change_pattern(self, room):
        spec = MultipathSpec(max_reflections=1, coherence=1.0)
        model = MultipathModel(room, spec)
        pts = np.random.default_rng(2).uniform(0, 4, (50, 2))
        g0 = model.prepare_reader((0.0, 0.0), [0.0] * 4).excess_gain_db(pts)
        g1 = model.prepare_reader((0.0, 0.0), [1.0, 2.0, 3.0, 0.5]).excess_gain_db(pts)
        assert not np.allclose(g0, g1)

    def test_wall_phase_count_validated(self, room):
        model = MultipathModel(room, MultipathSpec(max_reflections=1))
        with pytest.raises(ChannelError, match="wall phases"):
            model.prepare_reader((0.0, 0.0), [0.0])

    def test_invalid_spec_rejected(self):
        with pytest.raises(ChannelError):
            MultipathSpec(max_reflections=3)
        with pytest.raises(ChannelError):
            MultipathSpec(coherence=-0.1)

    def test_reflection_only_valid_through_wall(self):
        # A wall segment that the mirror path cannot reach contributes 0.
        room = rectangular_room(10, 10, reflectivity=0.0).with_walls(
            [  # single short reflective obstacle at x ~ 5
                __import__("repro.geometry.rooms", fromlist=["Wall"]).Wall(
                    Segment((5.0, 4.9), (5.0, 5.1)), attenuation_db=0.0,
                    reflectivity=0.9,
                )
            ]
        )
        model = MultipathModel(room, MultipathSpec(max_reflections=1, coherence=0.0))
        reader = (4.0, 5.0)
        # Point whose mirror path reflects inside the tiny wall: near the axis.
        on_axis = np.array([[4.5, 5.0]])
        off_axis = np.array([[4.0, 9.0]])
        g_on = excess_gain(model, reader, on_axis)
        g_off = excess_gain(model, reader, off_axis)
        assert g_on[0] > 0.0
        assert g_off[0] == pytest.approx(0.0)


def draw_fading(model, rng, shape):
    """Fading offsets (dB) of ``shape``, mapped from a fresh normal block."""
    return model.db_from_normals(
        rng.standard_normal((*shape, model.normals_per_read))
    )


class TestFading:
    def test_no_fading_returns_zeros(self):
        out = draw_fading(NoFading(), np.random.default_rng(0), (3, 4))
        np.testing.assert_array_equal(out, 0.0)

    def test_rician_shape(self, rician):
        out = draw_fading(rician, np.random.default_rng(0), (5, 7))
        assert out.shape == (5, 7)

    def test_high_k_low_variance(self):
        rng = np.random.default_rng(0)
        calm = draw_fading(RicianFading(k_factor=100.0), rng, (5000,))
        rough = draw_fading(RicianFading(k_factor=0.5), rng, (5000,))
        assert calm.std() < rough.std() / 3

    def test_floor_truncates_deep_fades(self):
        fading = RicianFading(k_factor=0.0, floor_db=-10.0)
        out = draw_fading(fading, np.random.default_rng(0), (20000,))
        assert out.min() >= -10.0

    def test_mean_offset_near_zero_for_large_k(self):
        offsets = draw_fading(
            RicianFading(k_factor=50.0), np.random.default_rng(0), (200_000,)
        )
        assert abs(offsets.mean()) < 0.2

    def test_invalid_parameters(self):
        with pytest.raises(Exception):
            RicianFading(k_factor=-1.0)
        with pytest.raises(ValueError):
            RicianFading(floor_db=1.0)
