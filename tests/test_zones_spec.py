"""Tests for repro.zones.spec: zone geometry, plans, fault slicing, builders."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.faults.models import (
    BurstLossFault,
    ReaderOutageFault,
    TagDeathFault,
)
from repro.faults.plan import FaultPlan, chaos_preset
from repro.zones import (
    ZONE_PITCH_M,
    RoamingTag,
    ZonePlan,
    ZoneSpec,
    monolithic_site_plan,
    scaled_site_plan,
    slice_fault_plan,
    zone_seed,
)


#: Any float at all, including NaN, infinities and huge magnitudes.
_any_float = st.floats(allow_nan=True, allow_infinity=True)


def _spec(zone_id="z0", origin=(0.0, 0.0), **kw):
    from repro.rf.environments import env1

    return ZoneSpec(zone_id=zone_id, environment=env1(), origin=origin, **kw)


class TestZoneSpec:
    def test_frame_transforms_roundtrip(self):
        spec = _spec(origin=(4.5, 9.0))
        assert spec.to_global((1.0, 2.0)) == (5.5, 11.0)
        assert spec.to_local((5.5, 11.0)) == (1.0, 2.0)
        assert spec.to_local(spec.to_global((0.7, 2.3))) == pytest.approx(
            (0.7, 2.3)
        )

    def test_clamp_local_projects_into_lattice_bounds(self):
        spec = _spec(origin=(4.5, 0.0))
        # Site position left of the zone clamps to the lattice edge.
        assert spec.clamp_local((0.0, 1.5)) == (0.0, 1.5)
        assert spec.clamp_local((20.0, -3.0)) == (3.0, 0.0)
        # Interior positions pass through untouched.
        assert spec.clamp_local((6.0, 1.5)) == (1.5, 1.5)

    def test_reader_positions_translate_with_origin(self):
        spec = _spec(origin=(10.0, 0.0))
        local = spec.local_reader_positions()
        shifted = spec.global_reader_positions()
        assert np.allclose(shifted - local, [10.0, 0.0])

    def test_explicit_reader_override(self):
        spec = _spec(reader_positions=((-1.0, -1.0), (4.0, 4.0)))
        assert spec.local_reader_positions().shape == (2, 2)

    def test_rejects_bad_zone_ids(self):
        for bad in ("", "a b", "a/b", "z*"):
            with pytest.raises(ConfigurationError):
                _spec(zone_id=bad)

    def test_footprint_excludes_readers_extent_includes_them(self):
        spec = _spec(origin=(4.5, 0.0))
        assert spec.footprint == (4.5, 0.0, 7.5, 3.0)
        readers = spec.local_reader_positions() + np.asarray(spec.origin)
        assert (*readers.min(axis=0), *readers.max(axis=0)) == (3.5, -1.0, 8.5, 4.0)


class TestZoneSpecValidation:
    @pytest.mark.parametrize(
        "origin",
        [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)],
    )
    def test_rejects_non_finite_origin(self, origin):
        with pytest.raises(ConfigurationError, match="origin"):
            _spec(origin=origin)

    def test_nan_origin_no_longer_passes_the_overlap_check(self):
        # A NaN footprint compared false against everything, so two
        # zones on top of each other used to form a valid plan.
        with pytest.raises(ConfigurationError, match="origin"):
            ZonePlan([_spec("a"), _spec("b", origin=(math.nan, 0.0))])

    @pytest.mark.parametrize("margin", [math.nan, -0.5, math.inf, True])
    def test_rejects_bad_reader_margin(self, margin):
        with pytest.raises(ConfigurationError, match="reader_margin_m"):
            _spec(reader_margin_m=margin)

    @pytest.mark.parametrize(
        "pos", [(math.nan, 1.0), (1.0, math.inf), (1.0, 2.0, 3.0)]
    )
    def test_rejects_bad_tracking_tag_positions(self, pos):
        with pytest.raises(ConfigurationError, match="tracking tag"):
            _spec(tracking_tags={1: pos})

    def test_rejects_non_finite_reader_positions(self):
        with pytest.raises(ConfigurationError, match="reader position"):
            _spec(reader_positions=((0.0, 0.0), (math.nan, 1.0)))

    @pytest.mark.parametrize("seed", [True, False, -1, 1.5, "0"])
    def test_rejects_non_integer_seeds(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            _spec(seed=seed)
        with pytest.raises(ConfigurationError, match="seed"):
            ZonePlan([_spec()], seed=seed)

    def test_accepts_integer_like_values(self):
        spec = _spec(
            origin=(4, 0), reader_margin_m=0, seed=np.int64(7),
            tracking_tags={"a": (1, 2)},
        )
        assert spec.origin == (4.0, 0.0)
        assert spec.seed == 7 and type(spec.seed) is int
        assert spec.tracking_tags == {"a": (1.0, 2.0)}

    @settings(max_examples=200, deadline=None)
    @given(
        origin=st.tuples(_any_float, _any_float),
        margin=st.one_of(_any_float, st.booleans()),
        tag=st.tuples(_any_float, _any_float),
        seed=st.one_of(st.integers(-5, 2**40), st.booleans()),
    )
    def test_construction_validates_or_raises(self, origin, margin, tag, seed):
        try:
            spec = _spec(
                origin=origin, reader_margin_m=margin,
                tracking_tags={"t": tag}, seed=seed,
            )
        except ConfigurationError:
            return
        assert all(math.isfinite(v) for v in spec.origin)
        assert math.isfinite(spec.reader_margin_m) and spec.reader_margin_m >= 0
        assert all(math.isfinite(v) for v in spec.tracking_tags["t"])
        assert isinstance(spec.seed, int) and not isinstance(spec.seed, bool)
        assert spec.seed >= 0
        assert all(math.isfinite(v) for v in spec.footprint)


class TestRoamingTag:
    def test_piecewise_linear_interpolation(self):
        tag = RoamingTag("r", ((0.0, (0.0, 0.0)), (10.0, (10.0, 0.0))))
        assert tag.position_at(0.0) == (0.0, 0.0)
        assert tag.position_at(5.0) == (5.0, 0.0)
        assert tag.position_at(10.0) == (10.0, 0.0)
        # Clamped outside the timed range.
        assert tag.position_at(-5.0) == (0.0, 0.0)
        assert tag.position_at(99.0) == (10.0, 0.0)

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ConfigurationError):
            RoamingTag("r", ((0.0, (0.0, 0.0)), (0.0, (1.0, 0.0))))

    def test_rejects_empty_route(self):
        with pytest.raises(ConfigurationError):
            RoamingTag("r", ())


class TestZonePlan:
    def test_rejects_duplicate_ids_and_overlap(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            ZonePlan((_spec("a"), _spec("a", origin=(10.0, 0.0))))
        with pytest.raises(ConfigurationError, match="overlap"):
            ZonePlan((_spec("a"), _spec("b", origin=(1.0, 0.0))))

    def test_rejects_roaming_label_collisions(self):
        spec = _spec("a", tracking_tags={"1": (0.5, 0.5)})
        roam = RoamingTag("1", ((0.0, (0.0, 0.0)),))
        with pytest.raises(ConfigurationError, match="collides"):
            ZonePlan((spec,), roaming=(roam,))

    def test_zone_seed_is_stable_and_per_zone(self):
        plan = scaled_site_plan("Env1", 2, seed=7)
        assert plan.zone_seed("z0") == zone_seed(7, "z0")
        assert plan.zone_seed("z0") != plan.zone_seed("z1")
        # Independent of how many zones the plan has.
        assert scaled_site_plan("Env1", 4, seed=7).zone_seed("z1") == \
            plan.zone_seed("z1")

    def test_detect_zone_owns_room_centres(self):
        plan = scaled_site_plan("Env1", 4, seed=0)
        for spec in plan:
            centre = spec.to_global((1.5, 1.5))
            assert plan.detect_zone(centre).zone_id == spec.zone_id

    def test_detect_zone_tie_breaks_lexicographically(self):
        plan = scaled_site_plan("Env1", 2, seed=0)
        # Exact midpoint between the two reader constellations.
        mid = (1.5 + ZONE_PITCH_M / 2.0, 1.5)
        assert plan.detect_zone(mid).zone_id == "z0"


def _oracle_rank(plan, pos):
    """The former ``detect_zone`` loop, rerun on the zones left until
    every zone is picked: brute-force selection on (mean reader
    distance, zone id)."""
    p = np.asarray([float(pos[0]), float(pos[1])], dtype=np.float64)
    left = sorted(plan.zones, key=lambda z: z.zone_id)
    order = []
    while left:
        best = best_zone = None
        for z in left:
            d = float(
                np.mean(np.linalg.norm(z.global_reader_positions() - p, axis=1))
            )
            if best is None or (d, z.zone_id) < best:
                best, best_zone = (d, z.zone_id), z
        order.append(best_zone)
        left.remove(best_zone)
    return tuple(order)


_SITES = {n: scaled_site_plan("Env1", n, seed=0) for n in (1, 2, 3, 4, 6)}

#: Room centres and the midpoints between neighbouring constellations:
#: on a symmetry line two zones' mean distances are often exactly equal.
_lattice = st.integers(-2, 7).map(lambda i: 1.5 + i * ZONE_PITCH_M / 2.0)


@st.composite
def _relabelled_plans(draw):
    """A scaled site with its zones shuffled and renamed, so neither the
    plan order nor the id order follows the geometry."""
    site = _SITES[draw(st.sampled_from(sorted(_SITES)))]
    zones = draw(st.permutations(site.zones))
    ids = draw(st.permutations(["a", "b", "c", "z0", "z1", "z9"]))
    return ZonePlan(
        [dataclasses.replace(z, zone_id=i) for z, i in zip(zones, ids)]
    )


class TestRankZones:
    @settings(max_examples=300, deadline=None)
    @given(
        plan=_relabelled_plans(),
        pos=st.one_of(
            st.tuples(_lattice, _lattice),
            st.tuples(st.floats(-5.0, 20.0), st.floats(-5.0, 20.0)),
        ),
    )
    def test_order_equals_brute_force_selection(self, plan, pos):
        ranked = plan.rank_zones(pos)
        assert ranked == _oracle_rank(plan, pos)
        assert plan.detect_zone(pos) is ranked[0]

    def test_exact_tie_breaks_on_zone_id(self):
        plan = _SITES[4]
        pos = (1.5 + ZONE_PITCH_M / 2.0,) * 2  # where the four rooms meet
        d = [
            float(np.mean(np.linalg.norm(
                z.global_reader_positions() - np.array(pos), axis=1
            )))
            for z in plan
        ]
        assert d[0] == d[1] and d[2] == d[3]  # the ties this pins
        assert [z.zone_id for z in plan.rank_zones(pos)] == [
            "z0", "z1", "z2", "z3",
        ]
        swapped = ZonePlan([
            dataclasses.replace(z, zone_id=i)
            for z, i in zip(plan, ["z1", "z0", "z3", "z2"])
        ])
        assert [z.zone_id for z in swapped.rank_zones(pos)] == [
            "z0", "z1", "z2", "z3",
        ]
        assert swapped.detect_zone(pos).origin == plan.zone("z1").origin


class TestFaultSlicing:
    def test_single_zone_slice_is_the_original_plan(self):
        plan = chaos_preset("severe", seed=3)
        sliced = slice_fault_plan(plan, "z0")
        assert sliced.seed == plan.seed
        assert sliced.faults == plan.faults

    def test_zone_prefixed_targets_route_to_their_zone(self):
        plan = FaultPlan(
            [
                ReaderOutageFault("z1/reader-0", start_s=1.0, duration_s=5.0),
                ReaderOutageFault("reader-2", start_s=1.0, duration_s=5.0),
                TagDeathFault("z0/ref-5", death_time_s=2.0),
            ],
            seed=9,
        )
        z0 = slice_fault_plan(plan, "z0")
        z1 = slice_fault_plan(plan, "z1")
        assert [type(f).__name__ for f in z0] == [
            "ReaderOutageFault", "TagDeathFault"
        ]
        assert z0.faults[0].reader_id == "reader-2"  # unprefixed: verbatim
        assert z0.faults[1].tag_id == "ref-5"  # prefix stripped
        assert [f.reader_id for f in z1] == ["reader-0", "reader-2"]
        assert z0.seed == z1.seed == 9

    def test_targetless_faults_hit_every_zone(self):
        plan = FaultPlan(
            [BurstLossFault(p_enter_bad=0.1, p_exit_bad=0.5, loss_bad=0.9)],
            seed=0,
        )
        assert len(slice_fault_plan(plan, "z0")) == 1
        assert len(slice_fault_plan(plan, "z7")) == 1


class TestBuilders:
    def test_scaled_site_tiles_row_major(self):
        plan = scaled_site_plan("Env1", 4, seed=0)
        origins = [spec.origin for spec in plan]
        p = ZONE_PITCH_M
        assert origins == [(0.0, 0.0), (p, 0.0), (0.0, p), (p, p)]
        assert plan.zone_ids == ("z0", "z1", "z2", "z3")
        # Each zone is its own seeded world.
        assert len({spec.seed for spec in plan}) == 4

    def test_monolith_matches_the_zoned_site(self):
        zoned = scaled_site_plan("Env1", 4, seed=0)
        mono = monolithic_site_plan("Env1", 4, seed=0)
        (spec,) = mono.zones
        # Same readers at the same site positions.
        zoned_readers = np.sort(
            np.vstack([z.global_reader_positions() for z in zoned]), axis=0
        )
        mono_readers = np.sort(spec.global_reader_positions(), axis=0)
        assert np.allclose(zoned_readers, mono_readers)
        # Same tracking-tag count, comparable virtual-tag density.
        assert len(spec.tracking_tags) == sum(
            len(z.tracking_tags) for z in zoned
        )
        assert spec.vire.target_total_tags == (10 * (spec.grid.rows - 1) + 1) ** 2

    def test_monolith_lattice_never_collides_with_a_reader(self):
        # The channel refuses zero-length tag->reader segments, so no
        # merged-lattice point may coincide with any reader. ZONE_PITCH_M
        # is chosen to guarantee this; the builder must preserve it.
        for n in (1, 4):
            (spec,) = monolithic_site_plan("Env1", n, seed=0).zones
            lattice = spec.grid.tag_positions()
            readers = spec.local_reader_positions()
            d = np.linalg.norm(
                lattice[:, None, :] - readers[None, :, :], axis=2
            )
            assert d.min() > 1e-6

    def test_monolith_rejects_non_square_and_env3(self):
        with pytest.raises(ConfigurationError, match="square"):
            monolithic_site_plan("Env1", 3)
        with pytest.raises(ConfigurationError, match="recipe"):
            monolithic_site_plan("Env3", 4)
