"""Regenerators for every figure in the paper's evaluation.

Each ``figN`` function reproduces the data behind the corresponding
figure and returns a structured result; each ``format_figN`` renders it
as terminal text (table + ASCII chart). The benchmark harness calls
these; EXPERIMENTS.md records paper-vs-measured values.

| Function | Paper figure | Content |
|----------|--------------|---------|
| fig2b    | Fig. 2(b)    | LANDMARC error, 9 tags x 3 environments |
| fig3     | Fig. 3       | RSSI vs distance, measured vs theoretical |
| fig4     | Fig. 4       | tag-density RF interference |
| fig6     | Fig. 6(a-c)  | VIRE vs LANDMARC per tag per environment |
| fig7     | Fig. 7       | error vs number of virtual tags (Env3) |
| fig8     | Fig. 8       | error vs threshold (Env3, N²=900) |
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..baselines.landmarc import LandmarcEstimator
from ..core.config import VIREConfig
from ..core.estimator import VIREEstimator
from ..exceptions import ConfigurationError
from ..geometry.placement import NON_BOUNDARY_TAGS, paper_testbed_grid
from ..rf.environments import env1, env2, env3
from ..rf.interference import TagInterferenceModel
from ..utils.ascii import bar_chart, format_table, line_chart
from ..utils.rng import derive_rng
from .measurement import TrialSampler
from .metrics import reduction_percent
from .runner import run_scenario
from .scenarios import paper_scenario

__all__ = [
    "fig2b", "format_fig2b",
    "fig3", "format_fig3",
    "fig4", "format_fig4",
    "fig6", "format_fig6",
    "fig7", "format_fig7",
    "fig8", "format_fig8",
    "default_vire_config",
]

_ENV_FACTORIES = (env1, env2, env3)


def default_vire_config() -> VIREConfig:
    """The paper's operating point: N² ≈ 900, adaptive threshold."""
    return VIREConfig(target_total_tags=900)


# ---------------------------------------------------------------- Fig. 2(b)


@dataclass(frozen=True)
class Fig2bResult:
    """LANDMARC per-tag mean error in each environment."""

    #: environment name -> {tag label -> mean error (m)}
    per_env: Mapping[str, Mapping[int, float]]


def fig2b(*, n_trials: int = 20, base_seed: int = 0) -> Fig2bResult:
    """LANDMARC alone across Env1/Env2/Env3 (the paper's motivation)."""
    per_env = {}
    for factory in _ENV_FACTORIES:
        env = factory()
        scenario = paper_scenario(env, n_trials=n_trials, base_seed=base_seed)
        result = run_scenario(scenario, [LandmarcEstimator()])
        per_env[env.name] = result.estimators[0].tag_means()
    return Fig2bResult(per_env=per_env)


def format_fig2b(result: Fig2bResult) -> str:
    envs = list(result.per_env)
    tags = sorted(next(iter(result.per_env.values())))
    rows = [
        [tag, *[result.per_env[e][tag] for e in envs]] for tag in tags
    ]
    table = format_table(
        ["Tag", *envs],
        rows,
        title="Fig. 2(b): LANDMARC estimation error (m) per tracking tag",
    )
    chart = bar_chart(
        tags,
        [result.per_env[envs[-1]][t] for t in tags],
        title=f"\n{envs[-1]} per-tag error",
    )
    return table + "\n" + chart


# ------------------------------------------------------------------- Fig. 3


@dataclass(frozen=True)
class Fig3Result:
    """RSSI-vs-distance curve with repeated-measurement spread."""

    distances_m: np.ndarray
    measured_mean: np.ndarray
    measured_min: np.ndarray
    measured_max: np.ndarray
    theoretical: np.ndarray


def fig3(
    *,
    environment=None,
    distances_m: Sequence[float] | None = None,
    n_reads: int = 20,
    seed: int = 0,
) -> Fig3Result:
    """RSSI vs distance: 20 readings per point vs the theoretical model.

    The paper measures a tag at increasing distance from one reader and
    plots min/mean/max of 20 readings against the smooth theoretical
    curve; the zigzag of the measured line is the point of the figure.
    """
    env = environment or env3()
    d = np.asarray(
        distances_m if distances_m is not None else np.arange(1.0, 20.5, 1.0),
        dtype=np.float64,
    )
    sampler = TrialSampler(env, paper_testbed_grid(), seed=seed)
    reads = sampler.rssi_vs_distance(d, n_reads=n_reads)
    return Fig3Result(
        distances_m=d,
        measured_mean=reads.mean(axis=1),
        measured_min=reads.min(axis=1),
        measured_max=reads.max(axis=1),
        theoretical=np.asarray(env.path_loss.rssi(d)),
    )


def format_fig3(result: Fig3Result) -> str:
    rows = [
        [f"{d:.1f}", mn, mean, mx, theo]
        for d, mn, mean, mx, theo in zip(
            result.distances_m,
            result.measured_min,
            result.measured_mean,
            result.measured_max,
            result.theoretical,
        )
    ]
    table = format_table(
        ["d (m)", "min", "mean", "max", "theoretical"],
        rows,
        float_fmt="{:.1f}",
        title="Fig. 3: RSSI (dBm) vs distance — measured (20 reads) vs theoretical",
    )
    chart = line_chart(
        result.distances_m.tolist(),
        result.measured_mean.tolist(),
        title="\nmeasured mean RSSI vs distance",
    )
    return table + "\n" + chart


# ------------------------------------------------------------------- Fig. 4


@dataclass(frozen=True)
class Fig4Result:
    """Per-tag RSSI: tags measured one at a time vs packed together."""

    independent_dbm: np.ndarray
    interference_dbm: np.ndarray


def fig4(
    *,
    n_tags: int = 20,
    environment=None,
    seed: int = 0,
) -> Fig4Result:
    """20 co-located tags: independent vs interfering readings.

    The test position is 2 m from reader 0. Independent: each tag
    placed there alone (no neighbours, so the interference model
    contributes nothing).
    Interference: all tags packed within a few centimetres, activating
    the density-dependent corruption (paper §4.1).
    """
    if n_tags < 2:
        raise ConfigurationError(f"need at least 2 tags, got {n_tags}")
    env = environment or env2()
    sampler = TrialSampler(env, paper_testbed_grid(), seed=seed)
    reader_index = 0
    origin = sampler.reader_positions[reader_index]
    test_point = origin + np.array([2.0, 0.0])
    rng = derive_rng(seed, "fig4")
    model = TagInterferenceModel()

    # One clean reading per tag at the same spot (sequential placement).
    clean = sampler.channel.sample_rssi(
        reader_index,
        np.tile(test_point, (n_tags, 1)),
        rng,
        n_reads=1,
    )[:, 0]

    # Packed placement: tags jittered within a 10 cm blob -> all neighbours.
    packed_positions = test_point[np.newaxis, :] + rng.uniform(
        -0.05, 0.05, size=(n_tags, 2)
    )
    packed_clean = sampler.channel.sample_rssi(
        reader_index, packed_positions, rng, n_reads=1
    )[:, 0]
    corrupted = model.corrupt(packed_clean, packed_positions, rng)
    return Fig4Result(independent_dbm=clean, interference_dbm=corrupted)


def format_fig4(result: Fig4Result) -> str:
    rows = [
        [i + 1, ind, inter]
        for i, (ind, inter) in enumerate(
            zip(result.independent_dbm, result.interference_dbm)
        )
    ]
    table = format_table(
        ["Tag", "independent (dBm)", "interference (dBm)"],
        rows,
        float_fmt="{:.1f}",
        title="Fig. 4: RF interference of co-located tags",
    )
    spread_ind = float(np.ptp(result.independent_dbm))
    spread_int = float(np.ptp(result.interference_dbm))
    return (
        table
        + f"\nspread: independent {spread_ind:.1f} dB, "
        + f"interference {spread_int:.1f} dB"
    )


# --------------------------------------------------------------- Fig. 6(a-c)


@dataclass(frozen=True)
class Fig6Result:
    """VIRE vs LANDMARC per tag per environment."""

    #: env name -> {tag -> mean error} for each estimator
    landmarc: Mapping[str, Mapping[int, float]]
    vire: Mapping[str, Mapping[int, float]]

    def reductions(self, env_name: str) -> dict[int, float]:
        """Per-tag error reduction (%) of VIRE over LANDMARC."""
        return {
            tag: reduction_percent(self.landmarc[env_name][tag], v)
            for tag, v in self.vire[env_name].items()
        }

    def non_boundary_average(self, env_name: str, estimator: str) -> float:
        """Mean error over the interior tags 1-5 (paper's headline stat)."""
        source = self.landmarc if estimator == "LANDMARC" else self.vire
        vals = [source[env_name][t] for t in NON_BOUNDARY_TAGS]
        return float(np.mean(vals))


def fig6(
    *,
    n_trials: int = 20,
    base_seed: int = 0,
) -> Fig6Result:
    """The headline comparison across all three environments."""
    grid = paper_testbed_grid()
    landmarc_out, vire_out = {}, {}
    for factory in _ENV_FACTORIES:
        env = factory()
        scenario = paper_scenario(env, n_trials=n_trials, base_seed=base_seed)
        result = run_scenario(
            scenario,
            [
                LandmarcEstimator(),
                VIREEstimator(grid, default_vire_config()),
            ],
        )
        landmarc_out[env.name] = result.by_name("LANDMARC").tag_means()
        vire_out[env.name] = result.by_name("VIRE").tag_means()
    return Fig6Result(landmarc=landmarc_out, vire=vire_out)


def format_fig6(result: Fig6Result) -> str:
    blocks = []
    for env_name in result.landmarc:
        tags = sorted(result.landmarc[env_name])
        reds = result.reductions(env_name)
        rows = [
            [
                tag,
                result.landmarc[env_name][tag],
                result.vire[env_name][tag],
                f"{reds[tag]:+.0f}%",
            ]
            for tag in tags
        ]
        rows.append(
            [
                "avg(1-5)",
                result.non_boundary_average(env_name, "LANDMARC"),
                result.non_boundary_average(env_name, "VIRE"),
                "",
            ]
        )
        blocks.append(
            format_table(
                ["Tag", "LANDMARC (m)", "VIRE (m)", "reduction"],
                rows,
                title=f"Fig. 6 {env_name}: VIRE vs LANDMARC",
            )
        )
    return "\n\n".join(blocks)


# ------------------------------------------------------------------- Fig. 7


@dataclass(frozen=True)
class Fig7Result:
    """Error vs the total number of (real + virtual) reference tags."""

    total_tags: np.ndarray
    mean_error: np.ndarray
    environment_name: str


def fig7(
    *,
    total_tag_targets: Sequence[int] = (16, 100, 300, 600, 900, 1200, 1500),
    environment=None,
    n_trials: int = 15,
    base_seed: int = 0,
) -> Fig7Result:
    """Density sweep (paper Fig. 7, Env3): more virtual tags -> better,
    saturating around N² = 900."""
    env = environment or env3()
    grid = paper_testbed_grid()
    totals, errors = [], []
    for target in total_tag_targets:
        config = VIREConfig(target_total_tags=max(int(target), grid.n_tags))
        estimator = VIREEstimator(grid, config)
        scenario = paper_scenario(env, n_trials=n_trials, base_seed=base_seed)
        result = run_scenario(scenario, [estimator])
        summary = result.estimators[0].summary(tags=NON_BOUNDARY_TAGS)
        totals.append(estimator.virtual_grid.total_tags)
        errors.append(summary.mean)
    return Fig7Result(
        total_tags=np.asarray(totals),
        mean_error=np.asarray(errors),
        environment_name=env.name,
    )


def format_fig7(result: Fig7Result) -> str:
    rows = list(zip(result.total_tags.tolist(), result.mean_error.tolist()))
    table = format_table(
        ["N² (total tags)", "mean error (m)"],
        rows,
        title=(
            f"Fig. 7 ({result.environment_name}): virtual tag density vs "
            "non-boundary error"
        ),
    )
    chart = line_chart(
        result.total_tags.tolist(),
        result.mean_error.tolist(),
        title="\nerror vs N²",
    )
    return table + "\n" + chart


# ------------------------------------------------------------------- Fig. 8


@dataclass(frozen=True)
class Fig8Result:
    """Error vs the (fixed) elimination threshold."""

    thresholds_db: np.ndarray
    mean_error: np.ndarray
    environment_name: str


def fig8(
    *,
    thresholds_db: Sequence[float] = (
        0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0,
    ),
    environment=None,
    n_trials: int = 15,
    base_seed: int = 0,
) -> Fig8Result:
    """Threshold sweep (paper Fig. 8, Env3 at N²=900): a U-shaped curve.

    Too small a threshold frequently empties the intersection ("the real
    positions may be swept") — the system then has to fall back to plain
    LANDMARC, raising the average error; too large a threshold admits
    noisy regions and the weighted centroid drifts toward the grid
    centre. The sweet spot sits where the threshold matches the
    channel's effective per-reading uncertainty (1-1.5 dB on the paper's
    testbed; a bit higher in our synthetic channel — see EXPERIMENTS.md).
    """
    env = environment or env3()
    grid = paper_testbed_grid()
    errors = []
    for threshold in thresholds_db:
        config = VIREConfig(
            target_total_tags=900,
            threshold_mode="fixed",
            fixed_threshold_db=float(threshold),
            empty_fallback="landmarc",
        )
        scenario = paper_scenario(env, n_trials=n_trials, base_seed=base_seed)
        result = run_scenario(scenario, [VIREEstimator(grid, config)])
        errors.append(result.estimators[0].summary(tags=NON_BOUNDARY_TAGS).mean)
    return Fig8Result(
        thresholds_db=np.asarray(list(thresholds_db), dtype=np.float64),
        mean_error=np.asarray(errors),
        environment_name=env.name,
    )


def format_fig8(result: Fig8Result) -> str:
    rows = list(zip(result.thresholds_db.tolist(), result.mean_error.tolist()))
    table = format_table(
        ["threshold (dB)", "mean error (m)"],
        rows,
        title=(
            f"Fig. 8 ({result.environment_name}): threshold vs non-boundary "
            "error (N²=900)"
        ),
    )
    chart = line_chart(
        result.thresholds_db.tolist(),
        result.mean_error.tolist(),
        title="\nerror vs threshold",
    )
    return table + "\n" + chart
