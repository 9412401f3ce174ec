#!/usr/bin/env python
"""Mobility (§6 future work): track a moving asset with motion filters.

A tag is carried on a loop through the Env3 office at walking speed.
Every 4 s the tracker pulls a middleware snapshot, runs VIRE, and feeds
the fix through four different filters. The constant-velocity Kalman
filter roughly halves the raw per-fix RMSE by exploiting motion
continuity — the layer the paper left as future work.

Run:  python examples/filtered_tracking.py
"""

from __future__ import annotations

from repro import (
    SmoothingSpec,
    VIREConfig,
    VIREEstimator,
    build_paper_deployment,
)
from repro.rf import env3
from repro.tracking import (
    AlphaBetaFilter,
    KalmanFilter2D,
    MovingAverageFilter,
    NoFilter,
    TagTracker,
    Trajectory,
    evaluate_track,
)
from repro.utils.ascii import format_table

#: A loop through the office at 0.25 m/s, starting after warm-up.
ROUTE = Trajectory.constant_speed(
    [(0.5, 0.5), (2.5, 0.7), (2.4, 2.5), (0.6, 2.4), (0.5, 0.5)],
    speed_mps=0.15,
    start_time_s=10.0,
)

FIX_INTERVAL_S = 3.0


def main() -> None:
    deployment = build_paper_deployment(
        env3(),
        tracking_tags={"asset": ROUTE.position_at(0.0)},
        seed=11,
        # Reference tags are static: deep window smoothing is free
        # accuracy. The moving tag gets "latest" so readings stay
        # current; temporal smoothing is delegated to the position
        # filters below.
        smoothing=SmoothingSpec(window=10),
        tracking_smoothing=SmoothingSpec(window=2),
    )
    simulator = deployment.simulator
    vire = VIREEstimator(deployment.grid, VIREConfig(target_total_tags=900))

    filters = {
        "raw": NoFilter(),
        "moving-average(4)": MovingAverageFilter(4),
        "alpha-beta": AlphaBetaFilter(alpha=0.45, beta=0.1),
        "kalman (CV)": KalmanFilter2D(measurement_sigma_m=0.8,
                                      process_accel=0.08),
    }
    trackers = {name: TagTracker(vire, f) for name, f in filters.items()}

    simulator.warm_up()
    while simulator.now < ROUTE.end_time_s:
        deployment.move_tracking_tag(
            "asset", ROUTE.position_at(simulator.now)
        )
        simulator.run_for(FIX_INTERVAL_S)
        for tracker in trackers.values():
            tracker.ingest_from(
                simulator.now, lambda: simulator.reading_for("asset")
            )

    rows = []
    for name, tracker in trackers.items():
        stats = evaluate_track(ROUTE, tracker.fixes())
        rows.append([name, stats.rmse_m, stats.p90_m, stats.max_m,
                     tracker.dropout_count])
    print(
        format_table(
            ["filter", "RMSE (m)", "p90 (m)", "max (m)", "dropouts"],
            rows,
            title=(
                f"tracking a {ROUTE.length_m:.1f} m loop in Env3 "
                f"({len(trackers['raw'].history)} fixes)"
            ),
        )
    )


if __name__ == "__main__":
    main()
