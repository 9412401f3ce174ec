"""Paired bootstrap significance test for estimator comparisons.

The runner evaluates every estimator on byte-identical readings, so the
per-(tag, trial) error *differences* are paired samples. The paired
bootstrap resamples those differences to give a confidence interval on
the mean improvement and a one-sided p-value for "estimator B is better
than estimator A" — turning Fig. 6's bar chart into a statistical claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from ..experiments.runner import ScenarioResult
from ..utils.rng import derive_rng

__all__ = ["PairedComparison", "paired_bootstrap"]


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of a paired bootstrap comparison (B vs A, positive = B wins)."""

    baseline_name: str
    improved_name: str
    mean_improvement_m: float
    ci_low_m: float
    ci_high_m: float
    p_value: float
    n_pairs: int

    def __str__(self) -> str:
        return (
            f"{self.improved_name} improves on {self.baseline_name} by "
            f"{self.mean_improvement_m:.3f} m "
            f"[{self.ci_low_m:.3f}, {self.ci_high_m:.3f}] (95% CI), "
            f"p={self.p_value:.4f}, n={self.n_pairs}"
        )


def paired_bootstrap(
    result: ScenarioResult,
    baseline: str,
    improved: str,
    *,
    n_resamples: int = 10_000,
    seed: int = 0,
) -> PairedComparison:
    """Bootstrap the mean paired error difference ``baseline - improved``.

    Parameters
    ----------
    result:
        A :func:`~repro.experiments.runner.run_scenario` output containing
        both estimators.
    baseline, improved:
        Estimator names (e.g. "LANDMARC", "VIRE").
    n_resamples:
        Bootstrap resamples for the CI / p-value.
    """
    if n_resamples < 100:
        raise ConfigurationError(f"n_resamples too small: {n_resamples}")
    base = result.by_name(baseline)
    imp = result.by_name(improved)
    if set(base.per_tag) != set(imp.per_tag):
        raise ConfigurationError("estimators cover different tag sets")

    diffs = np.concatenate(
        [
            np.asarray(base.per_tag[tag]) - np.asarray(imp.per_tag[tag])
            for tag in sorted(base.per_tag)
        ]
    )
    n = diffs.size
    rng = derive_rng(seed, "paired-bootstrap")
    idx = rng.integers(0, n, size=(n_resamples, n))
    means = diffs[idx].mean(axis=1)
    ci_low, ci_high = np.percentile(means, [2.5, 97.5])
    # One-sided p: probability the improvement is <= 0 under the bootstrap.
    p = float(np.mean(means <= 0.0))
    p = max(p, 1.0 / n_resamples)  # never report an exact zero
    return PairedComparison(
        baseline_name=baseline,
        improved_name=improved,
        mean_improvement_m=float(diffs.mean()),
        ci_low_m=float(ci_low),
        ci_high_m=float(ci_high),
        p_value=p,
        n_pairs=int(n),
    )
