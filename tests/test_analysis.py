"""Tests for the analysis layer: CDF comparison, paired bootstrap, report."""

from __future__ import annotations

import pytest

from repro import (
    LandmarcEstimator,
    NearestReferenceEstimator,
    VIREConfig,
    VIREEstimator,
    paper_scenario,
    run_scenario,
)
from repro.analysis import (
    cdf_comparison,
    format_cdf_comparison,
    paired_bootstrap,
)
from repro.exceptions import ConfigurationError
from repro.experiments.measurement import MeasurementSpec
from repro.experiments.scenarios import TestbedScenario

from .conftest import make_clean_environment


@pytest.fixture(scope="module")
def env3_result():
    scenario = paper_scenario("Env3", n_trials=8, base_seed=0)
    vire = VIREEstimator(scenario.grid, VIREConfig(target_total_tags=900))
    return run_scenario(scenario, [LandmarcEstimator(), vire])


class TestCdf:
    def test_fractions_monotone_in_level(self, env3_result):
        comp = cdf_comparison(env3_result)
        for name, curve in comp.items():
            levels = sorted(curve)
            vals = [curve[l] for l in levels]
            assert vals == sorted(vals), name

    def test_fractions_bounded(self, env3_result):
        comp = cdf_comparison(env3_result)
        for curve in comp.values():
            assert all(0.0 <= v <= 1.0 for v in curve.values())

    def test_vire_dominates_landmarc(self, env3_result):
        comp = cdf_comparison(env3_result)
        for level in comp["VIRE"]:
            assert comp["VIRE"][level] >= comp["LANDMARC"][level] - 0.05

    def test_invalid_levels_rejected(self, env3_result):
        with pytest.raises(ConfigurationError):
            cdf_comparison(env3_result, levels_m=(0.0, 1.0))

    def test_formatting(self, env3_result):
        out = format_cdf_comparison(cdf_comparison(env3_result))
        assert "LANDMARC" in out and "VIRE" in out
        assert "%" in out


def significant(comp) -> bool:
    """The improvement is significant at the 5% level."""
    return comp.p_value < 0.05 and comp.ci_low_m > 0.0


class TestPairedBootstrap:
    def test_vire_significant_in_env3(self, env3_result):
        comp = paired_bootstrap(env3_result, "LANDMARC", "VIRE", seed=1)
        assert comp.mean_improvement_m > 0
        assert significant(comp)
        assert comp.n_pairs == 8 * 9

    def test_ci_ordering(self, env3_result):
        comp = paired_bootstrap(env3_result, "LANDMARC", "VIRE")
        assert comp.ci_low_m <= comp.mean_improvement_m <= comp.ci_high_m

    def test_self_comparison_not_significant(self, env3_result):
        comp = paired_bootstrap(env3_result, "LANDMARC", "LANDMARC")
        assert comp.mean_improvement_m == 0.0
        assert not significant(comp)

    def test_deterministic_given_seed(self, env3_result):
        a = paired_bootstrap(env3_result, "LANDMARC", "VIRE", seed=5)
        b = paired_bootstrap(env3_result, "LANDMARC", "VIRE", seed=5)
        assert a == b

    def test_unknown_estimator_rejected(self, env3_result):
        with pytest.raises(ConfigurationError):
            paired_bootstrap(env3_result, "LANDMARC", "nope")

    def test_too_few_resamples_rejected(self, env3_result):
        with pytest.raises(ConfigurationError):
            paired_bootstrap(env3_result, "LANDMARC", "VIRE", n_resamples=10)

    def test_str_readable(self, env3_result):
        text = str(paired_bootstrap(env3_result, "LANDMARC", "VIRE"))
        assert "improves on LANDMARC" in text
        assert "95% CI" in text

    def test_detects_worse_estimator(self):
        """The nearest-reference baseline is clearly worse than VIRE in a
        clean channel; the bootstrap must NOT call it an improvement."""
        scenario = TestbedScenario(
            environment=make_clean_environment(),
            tracking_tags={1: (1.4, 1.6), 2: (2.2, 0.8)},
            n_trials=6,
            measurement=MeasurementSpec(n_reads=2),
        )
        vire = VIREEstimator(scenario.grid, VIREConfig(target_total_tags=900))
        result = run_scenario(
            scenario, [vire, NearestReferenceEstimator()]
        )
        comp = paired_bootstrap(result, "VIRE", "Nearest")
        assert comp.mean_improvement_m < 0
        assert not significant(comp)
