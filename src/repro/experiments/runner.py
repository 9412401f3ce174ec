"""Scenario runner: estimators x tracking tags x Monte-Carlo trials.

The runner is the single code path behind Figs. 2(b), 6, 7 and 8 — each
figure regenerator builds a scenario (or a family of them) and hands it
here together with the estimators to compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..engine import estimate_all
from ..exceptions import ConfigurationError
from ..types import Estimator, estimation_error
from .measurement import TrialSampler
from .metrics import ErrorSummary, summarize_errors
from .scenarios import TestbedScenario

__all__ = ["EstimatorErrors", "ScenarioResult", "run_scenario"]


@dataclass(frozen=True)
class EstimatorErrors:
    """Per-tag error samples of one estimator over all trials."""

    estimator_name: str
    #: tag label -> array of per-trial errors (metres)
    per_tag: Mapping[int, np.ndarray]

    def tag_means(self) -> dict[int, float]:
        """Mean error per tracking tag — the bars of Figs. 2(b)/6."""
        return {t: float(v.mean()) for t, v in self.per_tag.items()}

    def all_errors(self) -> np.ndarray:
        """Flat sample across tags and trials."""
        return np.concatenate([np.asarray(v) for v in self.per_tag.values()])

    def summary(self, tags: Sequence[int] | None = None) -> ErrorSummary:
        """Summary over all (or selected) tags."""
        if tags is None:
            sample = self.all_errors()
        else:
            missing = [t for t in tags if t not in self.per_tag]
            if missing:
                raise ConfigurationError(f"unknown tag labels {missing}")
            sample = np.concatenate([np.asarray(self.per_tag[t]) for t in tags])
        return summarize_errors(sample)


@dataclass(frozen=True)
class ScenarioResult:
    """All estimators' errors for one scenario."""

    scenario: TestbedScenario
    estimators: tuple[EstimatorErrors, ...]

    def by_name(self, name: str) -> EstimatorErrors:
        for e in self.estimators:
            if e.estimator_name == name:
                return e
        raise ConfigurationError(
            f"no estimator named {name!r}; have "
            f"{[e.estimator_name for e in self.estimators]}"
        )


def _run_one_trial(
    trial_index: int,
    *,
    scenario: TestbedScenario,
    estimators: Sequence[Estimator],
) -> dict[str, dict[int, float]]:
    """Errors of every estimator at every tag for one frozen world.

    Readings are sampled for all tags first — in the scenario's tag
    order, so the sampler's RNG draw sequence matches the historical
    tag-by-tag loop — and then each estimator localizes them as one
    batch through :func:`repro.engine.estimate_all` (the vectorized
    engine when the estimator provides ``estimate_batch``, a scalar loop
    otherwise; both bitwise identical to per-tag calls).
    """
    sampler = TrialSampler(
        scenario.environment,
        scenario.grid,
        seed=scenario.trial_seed(trial_index),
        measurement=scenario.measurement,
    )
    labels = list(scenario.tracking_tags)
    readings = [
        sampler.reading_for(scenario.tracking_tags[label]) for label in labels
    ]
    out: dict[str, dict[int, float]] = {}
    for est in estimators:
        results = estimate_all(est, readings)
        out[est.name] = {
            label: estimation_error(
                result.position, scenario.tracking_tags[label]
            )
            for label, result in zip(labels, results)
        }
    return out


def run_scenario(
    scenario: TestbedScenario,
    estimators: Sequence[Estimator],
) -> ScenarioResult:
    """Run every estimator over every trial of the scenario.

    All estimators see the *same* readings within a trial, so comparisons
    are paired (the variance of the LANDMARC-vs-VIRE difference is much
    smaller than of either error alone). Trials run in order, in
    process: each is a few milliseconds of vectorized numpy.
    """
    if not estimators:
        raise ConfigurationError("need at least one estimator")
    names = [e.name for e in estimators]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"estimator names must be unique, got {names}")

    trial_outputs = [
        _run_one_trial(i, scenario=scenario, estimators=estimators)
        for i in range(scenario.n_trials)
    ]

    collected: list[EstimatorErrors] = []
    for est in estimators:
        per_tag = {
            tag: np.array(
                [trial_out[est.name][tag] for trial_out in trial_outputs]
            )
            for tag in scenario.tracking_tags
        }
        collected.append(
            EstimatorErrors(estimator_name=est.name, per_tag=per_tag)
        )
    return ScenarioResult(scenario=scenario, estimators=tuple(collected))
