"""Tests for the experiment harness: measurement, scenarios, metrics, runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    LandmarcEstimator,
    NearestReferenceEstimator,
    VIREConfig,
    VIREEstimator,
    paper_scenario,
    run_scenario,
)
from repro.exceptions import ConfigurationError
from repro.experiments.measurement import MeasurementSpec, TrialSampler
from repro.experiments.metrics import reduction_percent, summarize_errors
from repro.experiments.scenarios import TestbedScenario
from repro.rf import PowerLevelQuantizer, env1

from .conftest import make_clean_environment


class TestMetrics:
    def test_summary_values(self):
        s = summarize_errors([1.0, 2.0, 3.0, 4.0])
        assert s.mean == pytest.approx(2.5)
        assert s.median == pytest.approx(2.5)
        assert s.maximum == 4.0
        assert s.n == 4

    def test_summary_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            summarize_errors([])

    def test_summary_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            summarize_errors([1.0, -0.5])

    def test_reduction_percent(self):
        assert reduction_percent(2.0, 1.0) == pytest.approx(50.0)
        assert reduction_percent(1.0, 1.5) == pytest.approx(-50.0)

    def test_reduction_rejects_zero_baseline(self):
        with pytest.raises(ConfigurationError):
            reduction_percent(0.0, 1.0)

class TestMeasurementSpec:
    def test_n_reads_validated(self):
        with pytest.raises(ConfigurationError):
            MeasurementSpec(n_reads=0)


class TestTrialSampler:
    def test_reading_structure(self, grid):
        sampler = TrialSampler(make_clean_environment(), grid, seed=0)
        reading = sampler.reading_for((1.0, 2.0))
        assert reading.n_readers == 4
        assert reading.n_references == 16
        np.testing.assert_allclose(
            reading.reference_positions, grid.tag_positions()
        )

    def test_reference_offsets_applied(self, grid):
        env = make_clean_environment(reference_tag_offset_sigma_db=5.0)
        biased = TrialSampler(env, grid, seed=0,
                              measurement=MeasurementSpec(n_reads=1))
        clean = TrialSampler(make_clean_environment(), grid, seed=0,
                             measurement=MeasurementSpec(n_reads=1))
        diff = (
            biased.reading_for((1.0, 1.0)).reference_rssi
            - clean.reading_for((1.0, 1.0)).reference_rssi
        )
        # Offsets are per tag: constant across readers, varying across tags.
        np.testing.assert_allclose(diff[0], diff[1], atol=0.3)
        assert diff[0].std() > 1.0

    def test_quantizer_applied(self, grid):
        spec = MeasurementSpec(n_reads=1, quantizer=PowerLevelQuantizer())
        sampler = TrialSampler(make_clean_environment(), grid, seed=0,
                               measurement=spec)
        reading = sampler.reading_for((1.0, 1.0))
        q = PowerLevelQuantizer()
        np.testing.assert_allclose(
            reading.reference_rssi, q.roundtrip(reading.reference_rssi)
        )

    def test_same_seed_same_world(self, grid):
        env = env1()
        r1 = TrialSampler(env, grid, seed=3).reading_for((1.0, 1.0))
        r2 = TrialSampler(env, grid, seed=3).reading_for((1.0, 1.0))
        np.testing.assert_array_equal(r1.reference_rssi, r2.reference_rssi)

    def test_distinct_tracking_calls_draw_new_offsets(self, grid):
        env = make_clean_environment(tracking_tag_offset_sigma_db=4.0)
        sampler = TrialSampler(env, grid, seed=0,
                               measurement=MeasurementSpec(n_reads=1))
        r1 = sampler.reading_for((1.0, 1.0))
        r2 = sampler.reading_for((1.0, 1.0))
        assert not np.allclose(r1.tracking_rssi, r2.tracking_rssi)

    def test_rssi_vs_distance_shape(self, grid):
        sampler = TrialSampler(make_clean_environment(), grid, seed=0)
        out = sampler.rssi_vs_distance(np.array([1.0, 2.0, 4.0]), n_reads=7)
        assert out.shape == (3, 7)

    def test_rssi_vs_distance_decreases(self, grid):
        sampler = TrialSampler(make_clean_environment(), grid, seed=0)
        out = sampler.rssi_vs_distance(np.array([1.0, 4.0, 16.0]), n_reads=5)
        means = out.mean(axis=1)
        assert means[0] > means[1] > means[2]

    def test_invalid_distances_rejected(self, grid):
        sampler = TrialSampler(make_clean_environment(), grid, seed=0)
        with pytest.raises(ConfigurationError):
            sampler.rssi_vs_distance(np.array([0.0, 1.0]))

    def test_bad_position_rejected(self, grid):
        sampler = TrialSampler(make_clean_environment(), grid, seed=0)
        with pytest.raises(ConfigurationError):
            sampler.reading_for((1.0, 2.0, 3.0))


class TestScenario:
    def test_paper_scenario_by_name(self):
        s = paper_scenario("Env1", n_trials=3)
        assert s.environment.name == "Env1"
        assert len(s.tracking_tags) == 9

    def test_paper_scenario_by_spec(self):
        s = paper_scenario(env1(), n_trials=2)
        assert s.environment.name == "Env1"

    def test_trial_seed_sequence(self):
        s = paper_scenario("Env1", n_trials=3, base_seed=100)
        assert [s.trial_seed(i) for i in range(3)] == [100, 101, 102]

    def test_trial_seed_out_of_range(self):
        s = paper_scenario("Env1", n_trials=3)
        with pytest.raises(ConfigurationError):
            s.trial_seed(3)

    def test_needs_tracking_tags(self):
        with pytest.raises(ConfigurationError):
            TestbedScenario(environment=env1(), tracking_tags={})

    def test_with_changes(self):
        s = paper_scenario("Env1", n_trials=3)
        s2 = s.with_(n_trials=5)
        assert s2.n_trials == 5
        assert s.n_trials == 3


class TestRunner:
    @pytest.fixture
    def scenario(self):
        return TestbedScenario(
            environment=make_clean_environment(),
            tracking_tags={1: (1.5, 1.5), 2: (0.5, 2.5)},
            n_trials=3,
            measurement=MeasurementSpec(n_reads=2),
        )

    def test_result_structure(self, scenario, grid):
        result = run_scenario(
            scenario,
            [LandmarcEstimator(), VIREEstimator(grid, VIREConfig())],
        )
        assert len(result.estimators) == 2
        lm = result.by_name("LANDMARC")
        assert set(lm.per_tag) == {1, 2}
        assert lm.per_tag[1].shape == (3,)

    def test_unknown_estimator_name(self, scenario, grid):
        result = run_scenario(scenario, [LandmarcEstimator()])
        with pytest.raises(ConfigurationError):
            result.by_name("VIRE")

    def test_duplicate_names_rejected(self, scenario):
        with pytest.raises(ConfigurationError, match="unique"):
            run_scenario(scenario, [LandmarcEstimator(), LandmarcEstimator()])

    def test_needs_estimators(self, scenario):
        with pytest.raises(ConfigurationError):
            run_scenario(scenario, [])

    def test_paired_readings_across_estimators(self, scenario, grid):
        """Estimators see the same readings: the clean-channel nearest
        estimator must land exactly on a reference tag every trial."""
        result = run_scenario(scenario, [NearestReferenceEstimator()])
        errs = result.estimators[0].per_tag[1]
        np.testing.assert_allclose(errs, errs[0], atol=1e-6)

    def test_summary_selected_tags(self, scenario, grid):
        result = run_scenario(scenario, [LandmarcEstimator()])
        full = result.estimators[0].summary()
        only1 = result.estimators[0].summary(tags=[1])
        assert full.n == 6
        assert only1.n == 3

    def test_summary_unknown_tags_rejected(self, scenario):
        result = run_scenario(scenario, [LandmarcEstimator()])
        with pytest.raises(ConfigurationError):
            result.estimators[0].summary(tags=[99])

    def test_tag_means_keys(self, scenario):
        result = run_scenario(scenario, [LandmarcEstimator()])
        means = result.estimators[0].tag_means()
        assert set(means) == {1, 2}
        assert all(v >= 0 for v in means.values())
