"""Parameter sweeps and ablations beyond the paper's figures.

These cover the design choices DESIGN.md calls out and the paper's §6
future-work directions:

* interpolation scheme (linear vs polynomial vs spline),
* reader count and placement,
* grid spacing (the paper's "effects of different grid spacing"),
* boundary compensation on/off,
* equipment generation (direct RSSI vs 8-level quantization, the §3.1
  pitfall),
* w1/w2 weighting ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..baselines.landmarc import LandmarcEstimator
from ..core.boundary import BoundaryAwareEstimator
from ..core.config import VIREConfig
from ..core.estimator import VIREEstimator
from ..engine import estimate_all
from ..exceptions import ConfigurationError
from ..geometry.grid import ReferenceGrid
from ..geometry.placement import (
    BOUNDARY_TAGS,
    NON_BOUNDARY_TAGS,
    figure2a_tracking_tags,
)
from ..rf.environments import EnvironmentSpec, env3
from ..rf.quantization import PowerLevelQuantizer
from ..types import Estimator
from ..utils.ascii import format_table
from .measurement import MeasurementSpec
from .runner import run_scenario
from .scenarios import TestbedScenario, paper_scenario

__all__ = [
    "SweepResult",
    "sweep_interpolation",
    "sweep_reader_count",
    "sweep_grid_spacing",
    "sweep_weighting",
    "sweep_equipment",
    "boundary_compensation_study",
    "format_sweep",
]


@dataclass(frozen=True)
class SweepResult:
    """Mean errors per swept variant."""

    parameter: str
    #: variant label -> mean non-boundary error (m)
    values: Mapping[str, float]
    environment_name: str


def format_sweep(result: SweepResult) -> str:
    rows = [[label, value] for label, value in result.values.items()]
    return format_table(
        [result.parameter, "mean error (m)"],
        rows,
        title=f"Ablation ({result.environment_name}): {result.parameter}",
    )


def _mean_error(
    scenario: TestbedScenario,
    estimator: Estimator,
    tags: Sequence[int] = NON_BOUNDARY_TAGS,
) -> float:
    result = run_scenario(scenario, [estimator])
    return result.estimators[0].summary(tags=tags).mean


def sweep_interpolation(
    *,
    environment: EnvironmentSpec | None = None,
    n_trials: int = 15,
    base_seed: int = 0,
) -> SweepResult:
    """Linear (the paper) vs polynomial vs spline interpolation (§6)."""
    env = environment or env3()
    scenario = paper_scenario(env, n_trials=n_trials, base_seed=base_seed)
    grid = scenario.grid
    values = {}
    for kind in ("linear", "polynomial", "spline"):
        config = VIREConfig(target_total_tags=900, interpolation=kind)
        values[kind] = _mean_error(scenario, VIREEstimator(grid, config))
    return SweepResult(
        parameter="interpolation", values=values, environment_name=env.name
    )


def sweep_reader_count(
    *,
    environment: EnvironmentSpec | None = None,
    reader_counts: Sequence[int] = (2, 3, 4),
    n_trials: int = 15,
    base_seed: int = 0,
) -> SweepResult:
    """Effect of the number of readers (paper §6 future work).

    Readers are dropped from the canonical 4-corner deployment (SW, SE,
    NW, NE order), exercising ``TrackingReading.subset_readers``. Each
    trial's readings are localized as one batch through the vectorized
    engine (readings are sampled in the historical tag order first, so
    the RNG draw sequence — and hence every number — is unchanged).
    """
    env = environment or env3()
    scenario = paper_scenario(env, n_trials=n_trials, base_seed=base_seed)
    grid = scenario.grid
    values: dict[str, float] = {}
    for count in reader_counts:
        if not (1 <= count <= 4):
            raise ConfigurationError(f"reader count must be 1..4, got {count}")
        keep = list(range(count))
        vire = VIREEstimator(grid, VIREConfig(target_total_tags=900))
        errors = []
        from .measurement import TrialSampler  # local import to avoid cycle

        for trial in range(scenario.n_trials):
            sampler = TrialSampler(
                env, grid, seed=scenario.trial_seed(trial),
                measurement=scenario.measurement,
            )
            positions = [scenario.tracking_tags[t] for t in NON_BOUNDARY_TAGS]
            readings = [
                sampler.reading_for(pos).subset_readers(keep)
                for pos in positions
            ]
            for result, true_pos in zip(
                estimate_all(vire, readings), positions
            ):
                errors.append(result.error_to(true_pos))
        values[f"{count} readers"] = float(np.mean(errors))
    return SweepResult(
        parameter="reader count", values=values, environment_name=env.name
    )


def sweep_grid_spacing(
    *,
    environment: EnvironmentSpec | None = None,
    spacing_factors: Sequence[float] = (0.75, 1.0, 1.25),
    n_trials: int = 15,
    base_seed: int = 0,
) -> SweepResult:
    """Effect of reference-grid spacing (paper §6 future work).

    The grid keeps 4x4 tags; the spacing scales, and the tracking tags
    scale with the grid bounds (the Fig. 2(a) placements are fractional).
    """
    env = environment or env3()
    values = {}
    for factor in spacing_factors:
        grid = ReferenceGrid().scaled(factor)
        scenario = TestbedScenario(
            environment=env,
            grid=grid,
            tracking_tags=figure2a_tracking_tags(grid),
            n_trials=n_trials,
            base_seed=base_seed,
        )
        vire = VIREEstimator(grid, VIREConfig(target_total_tags=900))
        values[f"{grid.spacing_x:.2f} m"] = _mean_error(scenario, vire)
    return SweepResult(
        parameter="grid spacing", values=values, environment_name=env.name
    )


def sweep_weighting(
    *,
    environment: EnvironmentSpec | None = None,
    n_trials: int = 15,
    base_seed: int = 0,
) -> SweepResult:
    """Ablate the w1/w2 weighting factors of §4.3."""
    env = environment or env3()
    scenario = paper_scenario(env, n_trials=n_trials, base_seed=base_seed)
    grid = scenario.grid
    variants = {
        "w1 inverse + w2": VIREConfig(target_total_tags=900),
        "w1 paper-literal + w2": VIREConfig(
            target_total_tags=900, w1_mode="paper-literal"
        ),
        "w1 only": VIREConfig(target_total_tags=900, use_w2=False),
        "w2 only": VIREConfig(target_total_tags=900, w1_mode="uniform"),
        "unweighted": VIREConfig(
            target_total_tags=900, w1_mode="uniform", use_w2=False
        ),
    }
    values = {
        label: _mean_error(scenario, VIREEstimator(grid, config))
        for label, config in variants.items()
    }
    return SweepResult(
        parameter="weighting", values=values, environment_name=env.name
    )


def sweep_equipment(
    *,
    environment: EnvironmentSpec | None = None,
    n_trials: int = 15,
    base_seed: int = 0,
) -> SweepResult:
    """Direct RSSI vs the original 8-level power quantization (§3.1).

    Quantifies how much of LANDMARC's original inaccuracy was the
    equipment rather than the algorithm.
    """
    env = environment or env3()
    values = {}
    for label, quantizer in (
        ("direct RSSI", None),
        ("8 power levels", PowerLevelQuantizer()),
    ):
        scenario = paper_scenario(
            env, n_trials=n_trials, base_seed=base_seed
        ).with_(measurement=MeasurementSpec(n_reads=10, quantizer=quantizer))
        values[label] = _mean_error(scenario, LandmarcEstimator())
    return SweepResult(
        parameter="equipment (LANDMARC)", values=values, environment_name=env.name
    )


@dataclass(frozen=True)
class BoundaryStudyResult:
    """Boundary compensation: errors on interior vs boundary tags."""

    plain_interior: float
    plain_boundary: float
    compensated_interior: float
    compensated_boundary: float
    environment_name: str


def boundary_compensation_study(
    *,
    environment: EnvironmentSpec | None = None,
    n_trials: int = 15,
    base_seed: int = 0,
    extension_cells: int = 1,
) -> BoundaryStudyResult:
    """Plain VIRE vs the §6 boundary-aware variant."""
    env = environment or env3()
    scenario = paper_scenario(env, n_trials=n_trials, base_seed=base_seed)
    grid = scenario.grid
    plain = VIREEstimator(grid, VIREConfig(target_total_tags=900))
    aware = BoundaryAwareEstimator(
        grid,
        VIREConfig(target_total_tags=900),
        extension_cells=extension_cells,
    )
    result = run_scenario(scenario, [plain, aware])
    plain_err = result.by_name("VIRE")
    aware_err = result.by_name("VIRE+boundary")
    return BoundaryStudyResult(
        plain_interior=plain_err.summary(tags=NON_BOUNDARY_TAGS).mean,
        plain_boundary=plain_err.summary(tags=BOUNDARY_TAGS).mean,
        compensated_interior=aware_err.summary(tags=NON_BOUNDARY_TAGS).mean,
        compensated_boundary=aware_err.summary(tags=BOUNDARY_TAGS).mean,
        environment_name=env.name,
    )
