"""Ablation: larger sensing areas and more readers (paper §6).

Scales the testbed from the paper's 4x4 grid to 8x8 and swaps the
4-corner reader set for an 8-reader perimeter ring, reporting VIRE's
accuracy at each scale. Benchmarks a VIRE estimate on the large grid
(more real tags -> bigger lattice at fixed subdivision).
"""

from __future__ import annotations

import numpy as np

from repro import LandmarcEstimator, VIREConfig, VIREEstimator, run_scenario
from repro.experiments.measurement import TrialSampler
from repro.experiments.scale import large_scale_scenario, perimeter_reader_positions
from repro.utils.ascii import format_table

from .conftest import emit


def bench_large_scale_grid(benchmark):
    rows_out = []
    for size in (4, 6, 8):
        scenario = large_scale_scenario(
            rows=size, cols=size, n_tracking_tags=8, n_trials=5
        )
        vire = VIREEstimator(scenario.grid, VIREConfig(subdivisions=8))
        result = run_scenario(scenario, [LandmarcEstimator(), vire])
        rows_out.append(
            [
                f"{size}x{size}",
                scenario.grid.n_tags,
                result.by_name("LANDMARC").summary().mean,
                result.by_name("VIRE").summary().mean,
            ]
        )
    emit(
        "Ablation — sensing-area scale (Env3-L, scattered tags)",
        format_table(
            ["grid", "real tags", "LANDMARC (m)", "VIRE (m)"], rows_out
        ),
    )

    # Benchmark one estimate on the biggest lattice.
    scenario = large_scale_scenario(rows=8, cols=8, n_tracking_tags=1,
                                    n_trials=1)
    vire = VIREEstimator(scenario.grid, VIREConfig(subdivisions=8))
    sampler = TrialSampler(scenario.environment, scenario.grid, seed=0)
    reading = sampler.reading_for(next(iter(scenario.tracking_tags.values())))
    out = benchmark(vire.estimate, reading)
    assert out.position is not None


def bench_more_readers(benchmark):
    """4 corner readers vs an 8-reader perimeter ring on the 6x6 grid."""
    scenario = large_scale_scenario(rows=6, cols=6, n_tracking_tags=8,
                                    n_trials=5)
    grid = scenario.grid
    env = scenario.environment
    vire = VIREEstimator(grid, VIREConfig(subdivisions=8))
    ring = perimeter_reader_positions(grid, per_side=1)

    rows_out = []
    for label, reader_set in (
        ("4 corners", None),  # TrialSampler's default corner deployment
        ("8-reader ring", ring),
    ):
        errors = []
        for trial in range(scenario.n_trials):
            seed = scenario.trial_seed(trial)
            sampler = TrialSampler(env, grid, seed=seed)
            if reader_set is not None:
                # Swap in the denser reader deployment (same frozen seed).
                sampler.channel = env.build_channel(reader_set, seed=seed)
                sampler.reader_positions = reader_set
            for pos in scenario.tracking_tags.values():
                reading = sampler.reading_for(pos)
                errors.append(vire.estimate(reading).error_to(pos))
        rows_out.append([label, float(np.mean(errors))])
    emit(
        "Ablation — reader count at scale (6x6 grid)",
        format_table(["readers", "VIRE mean error (m)"], rows_out),
    )
    assert rows_out[1][1] <= rows_out[0][1] + 0.1  # ring at least as good

    sampler = TrialSampler(env, grid, seed=0)
    reading = sampler.reading_for((2.5, 2.5))
    out = benchmark(vire.estimate, reading)
    assert out.position is not None
