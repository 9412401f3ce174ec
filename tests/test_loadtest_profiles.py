"""Tests for repro.loadtest.profiles: deterministic arrival schedules."""

from __future__ import annotations

import json
import math

import pytest

from repro.exceptions import ConfigurationError
from repro.loadtest import (
    ARRIVAL_PROCESSES,
    PRESET_PROFILES,
    LoadProfile,
    generate_schedule,
    preset_profile,
)
from repro.loadtest.profiles import _tag_labels
from repro.utils.rng import derive_rng


class TestLoadProfile:
    def test_defaults_are_valid(self):
        p = LoadProfile()
        assert p.process in ARRIVAL_PROCESSES
        assert p.zone_ids() == ("z0",)

    def test_zone_ids_scale(self):
        assert LoadProfile(n_zones=3).zone_ids() == ("z0", "z1", "z2")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"process": "fractal"},
            {"n_zones": 0},
            {"duration_s": 0.0},
            {"rate_per_s": -1.0},
            {"burst_factor": 0.5},
            {"burst_duty": 1.5},
            {"max_batches_per_tick": 0},
            {"admission_rate_per_s": 0.0},
            {"environment": "Env9"},
        ],
    )
    def test_invalid_profiles_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            LoadProfile(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rate_per_s", math.nan),
            ("rate_per_s", math.inf),
            ("rate_per_s", True),
            ("duration_s", math.nan),
            ("duration_s", math.inf),
            ("burst_period_s", math.nan),
            ("burst_factor", math.nan),
            ("admission_rate_per_s", math.nan),
            ("admission_rate_per_s", math.inf),
            ("admission_rate_per_s", True),
            ("n_zones", 1.5),
            ("n_zones", True),
            ("admission_burst", math.nan),
            ("admission_burst", 1.5),
            ("max_batches_per_tick", 1.5),
        ],
    )
    def test_non_finite_bool_and_fractional_inputs_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            LoadProfile(**{field: value})

    def test_validation_keeps_the_values_passed(self):
        p = LoadProfile(rate_per_s=60, duration_s=5, admission_rate_per_s=2)
        assert (p.rate_per_s, p.duration_s, p.admission_rate_per_s) == (60, 5, 2)
        assert type(p.rate_per_s) is int

    def test_with_returns_updated_copy(self):
        p = LoadProfile()
        q = p.with_(rate_per_s=9.0, n_zones=2)
        assert q.rate_per_s == 9.0 and q.n_zones == 2
        assert p.rate_per_s != 9.0  # original untouched

    def test_canonical_document_roundtrips_as_json(self):
        doc = LoadProfile(process="burst").canonical_document()
        assert json.loads(json.dumps(doc, sort_keys=True)) == doc

    def test_presets_cover_every_process(self):
        assert {p.process for p in PRESET_PROFILES.values()} == set(
            ARRIVAL_PROCESSES
        )
        with pytest.raises(ConfigurationError):
            preset_profile("nope")


class TestGenerateSchedule:
    def test_events_sorted_and_inside_horizon(self):
        p = LoadProfile(process="poisson", duration_s=20.0, rate_per_s=6.0,
                        n_zones=2, seed=4)
        schedule = generate_schedule(p)
        assert len(schedule) > 0
        times = [t for t, _, _ in schedule.events]
        assert times == sorted(times)
        assert all(0.0 < t <= p.duration_s for t in times)
        assert {z for _, z, _ in schedule.events} == {"z0", "z1"}

    def test_uniform_rate_is_exact(self):
        p = LoadProfile(process="uniform", duration_s=10.0, rate_per_s=5.0)
        assert len(generate_schedule(p)) == 50

    def test_poisson_rate_is_approximate(self):
        p = LoadProfile(process="poisson", duration_s=200.0, rate_per_s=5.0,
                        seed=1)
        n = len(generate_schedule(p))
        assert 800 < n < 1200  # mean 1000, sd ~32

    def test_burst_concentrates_arrivals_in_the_duty_window(self):
        p = LoadProfile(process="burst", duration_s=32.0, rate_per_s=8.0,
                        burst_period_s=8.0, burst_duty=0.25,
                        burst_factor=6.0, seed=2)
        schedule = generate_schedule(p)
        in_burst = sum(
            1 for t, _, _ in schedule.events
            if (t % p.burst_period_s) < p.burst_duty * p.burst_period_s
        )
        assert in_burst > 0.6 * len(schedule)

    def test_same_seed_same_schedule(self):
        p = LoadProfile(process="burst", seed=9)
        a, b = generate_schedule(p), generate_schedule(p)
        assert a.events == b.events
        assert a.digest() == b.digest()

    def test_different_seed_different_schedule(self):
        a = generate_schedule(LoadProfile(process="poisson", seed=1))
        b = generate_schedule(LoadProfile(process="poisson", seed=2))
        assert a.events != b.events

    def test_zone_streams_are_independent(self):
        # Adding zones must not perturb z0's arrivals: each zone draws
        # from its own derived RNG stream.
        one = generate_schedule(LoadProfile(process="poisson", seed=7))
        three = generate_schedule(
            LoadProfile(process="poisson", seed=7, n_zones=3)
        )
        assert three.for_zone("z0") == one.for_zone("z0")

    def test_for_zone_unknown_raises(self):
        schedule = generate_schedule(LoadProfile())
        with pytest.raises(ConfigurationError):
            schedule.for_zone("z9")

    def test_offered_by_zone_sums_to_total(self):
        profile = LoadProfile(n_zones=3, seed=3)
        schedule = generate_schedule(profile)
        offered = [len(schedule.for_zone(zid)) for zid in profile.zone_ids()]
        assert sum(offered) == len(schedule)

    def test_labels_come_from_the_paper_testbed(self):
        schedule = generate_schedule(LoadProfile(seed=5))
        labels = {label for _, _, label in schedule.events}
        assert labels <= {str(i) for i in range(1, 10)}

    def test_canonical_document_is_byte_stable(self):
        p = LoadProfile(process="burst", seed=6)
        a = json.dumps(generate_schedule(p).canonical_document(),
                       sort_keys=True)
        b = json.dumps(generate_schedule(p).canonical_document(),
                       sort_keys=True)
        assert a == b


# -- the arrival loop before its invariants were hoisted, and the label
# -- draws before they were one call per zone, kept as the oracle ---------


def _oracle_burst_rate(profile, t):
    phase = t % profile.burst_period_s
    if phase < profile.burst_duty * profile.burst_period_s:
        return profile.rate_per_s * profile.burst_factor
    return profile.rate_per_s


def _oracle_zone_arrivals(profile, zone_id):
    rng = derive_rng(profile.seed, "loadtest", profile.name, zone_id)
    interval = 1.0 / profile.rate_per_s
    if profile.process == "uniform":
        t = interval
        while t < profile.duration_s:
            yield t
            t += interval
        return
    if profile.process == "poisson":
        t = float(rng.exponential(interval))
        while t < profile.duration_s:
            yield t
            t += float(rng.exponential(interval))
        return
    peak = profile.rate_per_s * profile.burst_factor
    t = float(rng.exponential(1.0 / peak))
    while t < profile.duration_s:
        keep = float(rng.random()) < _oracle_burst_rate(profile, t) / peak
        if keep:
            yield t
        t += float(rng.exponential(1.0 / peak))


def _oracle_events(profile):
    labels = _tag_labels()
    events = []
    for zone_id in profile.zone_ids():
        rng = derive_rng(
            profile.seed, "loadtest", profile.name, zone_id, "labels"
        )
        for t in _oracle_zone_arrivals(profile, zone_id):
            label = labels[int(rng.integers(0, len(labels)))]
            events.append((round(t, 9), zone_id, label))
    events.sort()
    return tuple(events)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("profile", [
    LoadProfile(process="burst", duration_s=30.0, rate_per_s=60.0,
                burst_factor=4.0, burst_period_s=7.0, burst_duty=0.3,
                n_zones=2),
    LoadProfile(process="burst", duration_s=20.0, rate_per_s=3,
                burst_factor=5, burst_period_s=2.5, burst_duty=1.0),
    LoadProfile(process="poisson", duration_s=20.0, rate_per_s=9.0,
                n_zones=2),
    LoadProfile(process="uniform", duration_s=13.0, rate_per_s=7.0),
    LoadProfile(process="uniform", duration_s=26.0, rate_per_s=40.0),
], ids=["burst", "burst-int-rates", "poisson", "uniform", "uniform-long"])
def test_schedule_equals_the_per_candidate_loop(profile, seed):
    profile = profile.with_(seed=seed)
    events = generate_schedule(profile).events
    assert len(events) > 0
    assert events == _oracle_events(profile)
