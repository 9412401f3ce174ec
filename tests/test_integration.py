"""Integration tests: the full stack end-to-end, reproduction claims,
and failure injection."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BOUNDARY_TAGS,
    NON_BOUNDARY_TAGS,
    LandmarcEstimator,
    SmoothingSpec,
    VIREConfig,
    VIREEstimator,
    build_paper_deployment,
    paper_scenario,
    paper_testbed_grid,
    run_scenario,
)
from repro.exceptions import ReadingError
from repro.rf import env1, env3, HumanMovementDisturbance
from repro.hardware.tags import TagSpec

from .conftest import make_clean_environment

pytestmark = pytest.mark.slow


class TestFullTestbedPipeline:
    """Event simulation -> middleware -> estimators, end to end."""

    def test_testbed_vire_localizes_clean_env(self):
        dep = build_paper_deployment(
            make_clean_environment(),
            tracking_tags={"asset": (1.4, 1.8)},
            seed=0,
        )
        dep.simulator.warm_up()
        dep.simulator.run_for(30.0)
        reading = dep.simulator.reading_for("asset")
        vire = VIREEstimator(dep.grid, VIREConfig(target_total_tags=900))
        err = vire.estimate(reading).error_to((1.4, 1.8))
        assert err < 0.2

    def test_testbed_matches_direct_path_statistically(self):
        """The event-driven path and the TrialSampler path must agree on
        the channel's mean RSSI (they share the frozen world)."""
        from repro.experiments.measurement import MeasurementSpec, TrialSampler

        env = env1()
        dep = build_paper_deployment(
            env, tracking_tags={"asset": (1.5, 1.5)}, seed=4,
            smoothing=SmoothingSpec(window=30),
        )
        dep.simulator.warm_up()
        dep.simulator.run_for(120.0)
        testbed_reading = dep.simulator.reading_for("asset")

        sampler = TrialSampler(
            env, dep.grid, seed=4, measurement=MeasurementSpec(n_reads=50)
        )
        direct_reading = sampler.reading_for((1.5, 1.5))
        # Same frozen world -> same reference field up to per-tag offsets
        # drawn from the same named stream and residual read noise.
        diff = testbed_reading.reference_rssi - direct_reading.reference_rssi
        assert np.abs(diff).mean() < 2.0

    def test_moving_asset_tracked_across_positions(self):
        dep = build_paper_deployment(
            make_clean_environment(),
            tracking_tags={"asset": (0.7, 0.7)},
            seed=1,
            smoothing=SmoothingSpec(window=3),
        )
        vire = VIREEstimator(dep.grid, VIREConfig(target_total_tags=900))
        dep.simulator.warm_up()
        errors = []
        for target in [(0.7, 0.7), (1.7, 1.2), (2.4, 2.3)]:
            dep.move_tracking_tag("asset", target)
            dep.simulator.run_for(20.0)  # let smoothing converge
            reading = dep.simulator.reading_for("asset")
            errors.append(vire.estimate(reading).error_to(target))
        assert max(errors) < 0.4


class TestReproductionClaims:
    """The paper's headline results, as statistical assertions."""

    def test_vire_beats_landmarc_in_every_environment(self):
        grid = paper_testbed_grid()
        for env_name in ("Env1", "Env2", "Env3"):
            scenario = paper_scenario(env_name, n_trials=10)
            result = run_scenario(
                scenario,
                [LandmarcEstimator(),
                 VIREEstimator(grid, VIREConfig(target_total_tags=900))],
            )
            lm = result.by_name("LANDMARC").summary().mean
            vi = result.by_name("VIRE").summary().mean
            assert vi < lm, env_name

    def test_environment_difficulty_ordering(self):
        grid = paper_testbed_grid()
        means = {}
        for env_name in ("Env1", "Env2", "Env3"):
            scenario = paper_scenario(env_name, n_trials=10)
            result = run_scenario(scenario, [LandmarcEstimator()])
            means[env_name] = result.estimators[0].summary().mean
        assert means["Env1"] < means["Env3"]
        assert means["Env2"] < means["Env3"]

    def test_tag9_worst_for_landmarc(self):
        scenario = paper_scenario("Env3", n_trials=10)
        result = run_scenario(scenario, [LandmarcEstimator()])
        means = result.estimators[0].tag_means()
        assert means[9] == max(means.values())

    def test_boundary_tags_worse_than_interior_env3(self):
        scenario = paper_scenario("Env3", n_trials=10)
        result = run_scenario(scenario, [LandmarcEstimator()])
        interior = result.estimators[0].summary(tags=NON_BOUNDARY_TAGS).mean
        boundary = result.estimators[0].summary(tags=BOUNDARY_TAGS).mean
        assert boundary > interior

    def test_reduction_band_reasonable(self):
        """Mean reductions fall in a generous version of the paper's
        17-73% band."""
        grid = paper_testbed_grid()
        scenario = paper_scenario("Env3", n_trials=12)
        result = run_scenario(
            scenario,
            [LandmarcEstimator(),
             VIREEstimator(grid, VIREConfig(target_total_tags=900))],
        )
        lm = result.by_name("LANDMARC").summary().mean
        vi = result.by_name("VIRE").summary().mean
        reduction = 100.0 * (1.0 - vi / lm)
        assert 10.0 < reduction < 80.0


class TestFailureInjection:
    def test_missing_reader_degrades_gracefully(self):
        grid = paper_testbed_grid()
        vire = VIREEstimator(grid, VIREConfig(target_total_tags=900))
        from repro.experiments.measurement import TrialSampler

        sampler = TrialSampler(env3(), grid, seed=0)
        pos = (1.5, 1.5)
        full = sampler.reading_for(pos)
        degraded = full.subset_readers([0, 1, 2])
        err_full = vire.estimate(full).error_to(pos)
        err_degraded = vire.estimate(degraded).error_to(pos)
        assert err_degraded < 2.0  # still bounded
        assert np.isfinite(err_full)

    def test_dead_reference_tag_detected_by_middleware(self):
        env = make_clean_environment()
        dep = build_paper_deployment(
            env,
            tracking_tags={"asset": (1.5, 1.5)},
            seed=0,
            smoothing=SmoothingSpec(max_age_s=10.0),
        )
        # Kill one reference tag's battery after 2 beacons.
        victim = dep.simulator.tag("ref-5")
        victim.spec = TagSpec(battery_life_beacons=2)
        dep.simulator.run_for(60.0)
        with pytest.raises(ReadingError, match="ref-5"):
            dep.simulator.reading_for("asset")

    def test_person_walking_through_bounded_degradation(self):
        env = env1()
        walk = HumanMovementDisturbance(
            waypoints=((1.5, -2.0), (1.5, 5.0)),
            speed_mps=0.8,
            attenuation_db=10.0,
            start_time_s=10.0,
        )
        dep = build_paper_deployment(
            env, tracking_tags={"asset": (1.5, 1.5)}, seed=0,
            disturbances=[walk],
            smoothing=SmoothingSpec(window=8),
        )
        dep.simulator.warm_up()
        dep.simulator.run_for(12.0)  # person mid-walk
        reading = dep.simulator.reading_for("asset")
        vire = VIREEstimator(dep.grid, VIREConfig(target_total_tags=900))
        err = vire.estimate(reading).error_to((1.5, 1.5))
        # The temporal smoothing keeps the error bounded despite the person.
        assert err < 1.5

    def test_tracking_tag_outside_everything_stays_finite(self):
        from repro.experiments.measurement import TrialSampler

        grid = paper_testbed_grid()
        sampler = TrialSampler(env1(), grid, seed=0)
        vire = VIREEstimator(grid, VIREConfig(target_total_tags=900))
        reading = sampler.reading_for((7.0, 7.0))  # far outside
        res = vire.estimate(reading)
        assert np.isfinite(res.x) and np.isfinite(res.y)
