"""Ablations over VIRE's design choices called out in DESIGN.md:
weighting factors, reader count, grid spacing, equipment generation,
boundary compensation.
"""

from __future__ import annotations

from repro import VIREConfig, VIREEstimator
from repro.experiments.sweeps import (
    boundary_compensation_study,
    format_sweep,
    sweep_equipment,
    sweep_grid_spacing,
    sweep_reader_count,
    sweep_weighting,
)

from .conftest import emit


def bench_ablation_soft_vs_classic(benchmark, grid, env3_reading):
    """Classic threshold-elimination VIRE vs the soft-likelihood variant."""
    from repro import SoftVIREEstimator
    from repro.experiments.runner import run_scenario
    from repro.experiments.scenarios import paper_scenario

    scenario = paper_scenario("Env3", n_trials=10)
    classic = VIREEstimator(grid, VIREConfig(target_total_tags=900))
    soft = SoftVIREEstimator(grid, sigma_db=2.5)
    result = run_scenario(scenario, [classic, soft])
    emit(
        "Ablation — classic VIRE vs soft-likelihood VIRE (Env3)",
        "\n".join(
            f"  {est.estimator_name:10s} mean {est.summary().mean:.3f} m, "
            f"p90 {est.summary().p90:.3f} m"
            for est in result.estimators
        ),
    )

    out = benchmark(soft.estimate, env3_reading)
    assert out.position is not None


def bench_ablation_weighting(benchmark, grid, env3_reading):
    result = sweep_weighting(n_trials=8)
    emit("Ablation — w1/w2 weighting (Env3)", format_sweep(result))

    unweighted = VIREEstimator(
        grid,
        VIREConfig(target_total_tags=900, w1_mode="uniform", use_w2=False),
    )
    out = benchmark(unweighted.estimate, env3_reading)
    assert out.position is not None


def bench_ablation_reader_count(benchmark, vire, env3_reading):
    result = sweep_reader_count(reader_counts=(2, 3, 4), n_trials=8)
    emit("Ablation — reader count (Env3)", format_sweep(result))
    assert result.values["4 readers"] <= result.values["2 readers"]

    two_reader = env3_reading.subset_readers([0, 1])
    out = benchmark(vire.estimate, two_reader)
    assert out.position is not None


def bench_ablation_grid_spacing(benchmark, vire, env3_reading):
    result = sweep_grid_spacing(spacing_factors=(0.75, 1.0, 1.25), n_trials=8)
    emit("Ablation — reference grid spacing (Env3)", format_sweep(result))

    out = benchmark(vire.estimate, env3_reading)
    assert out.position is not None


def bench_ablation_equipment_generation(benchmark, landmarc, env3_reading):
    result = sweep_equipment(n_trials=10)
    emit(
        "Ablation — direct RSSI vs original 8-level equipment (LANDMARC, Env3)",
        format_sweep(result),
    )
    assert result.values["8 power levels"] > result.values["direct RSSI"]

    out = benchmark(landmarc.estimate, env3_reading)
    assert out.position is not None


def bench_ablation_boundary_compensation(benchmark, grid, env3_reading):
    study = boundary_compensation_study(n_trials=8)
    emit(
        "Ablation — §6 boundary compensation (Env3)",
        "\n".join(
            [
                f"plain VIRE     interior {study.plain_interior:.3f} m, "
                f"boundary {study.plain_boundary:.3f} m",
                f"boundary-aware interior {study.compensated_interior:.3f} m, "
                f"boundary {study.compensated_boundary:.3f} m",
            ]
        ),
    )

    from repro import BoundaryAwareEstimator

    aware = BoundaryAwareEstimator(grid, VIREConfig(target_total_tags=900))
    out = benchmark(aware.estimate, env3_reading)
    assert out.position is not None
