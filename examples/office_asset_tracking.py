#!/usr/bin/env python
"""Track a moving asset through the Env3 office with the full testbed.

Unlike the quickstart (which samples readings directly from the channel),
this example drives the complete event-driven stack: active tags beacon
every ~2 s, the four readers receive through the Env3 channel, the
middleware smooths per-(reader, tag) series, and VIRE localizes the
asset as it is carried from desk to desk — including a person walking
through the testbed mid-experiment (paper §4.1's disturbance).

Run:  python examples/office_asset_tracking.py
"""

from __future__ import annotations

from repro import (
    HumanMovementDisturbance,
    SmoothingSpec,
    VIREConfig,
    VIREEstimator,
    build_paper_deployment,
)
from repro.rf import env3
from repro.utils.ascii import format_table

#: Waypoints of the asset: picked up near the SW desk, carried across
#: the room, parked at the NE corner.
ASSET_ROUTE = [
    (0.6, 0.5),
    (1.2, 1.4),
    (1.9, 1.8),
    (2.5, 2.4),
]

#: Dwell time at each waypoint before the next snapshot (seconds).
DWELL_S = 24.0


def main() -> None:
    walker = HumanMovementDisturbance(
        waypoints=((3.5, -1.0), (-0.5, 3.5)),
        speed_mps=0.6,
        attenuation_db=9.0,
        start_time_s=30.0,
    )
    deployment = build_paper_deployment(
        env3(),
        tracking_tags={"asset": ASSET_ROUTE[0]},
        seed=7,
        smoothing=SmoothingSpec(window=8),
        disturbances=[walker],
    )
    simulator = deployment.simulator
    vire = VIREEstimator(deployment.grid, VIREConfig(target_total_tags=900))

    simulator.warm_up()
    print(
        f"testbed warm at t={simulator.now:.0f}s: "
        f"{simulator.middleware.records_ingested} readings ingested"
    )

    rows = []
    for waypoint in ASSET_ROUTE:
        deployment.move_tracking_tag("asset", waypoint)
        simulator.run_for(DWELL_S)
        reading = simulator.reading_for("asset")
        estimate = vire.estimate(reading)
        err = estimate.error_to(waypoint)
        walking = walker.position_at(simulator.now) is not None
        rows.append(
            [
                f"{simulator.now:.0f}s",
                f"({waypoint[0]:.1f}, {waypoint[1]:.1f})",
                f"({estimate.x:.2f}, {estimate.y:.2f})",
                err,
                "yes" if walking else "no",
            ]
        )

    print(
        format_table(
            ["t", "true position", "VIRE estimate", "error (m)", "person walking"],
            rows,
            title="\nasset trajectory through the Env3 office",
        )
    )
    frames = sum(r.frames_received for r in simulator.readers)
    dropped = sum(r.frames_dropped for r in simulator.readers)
    print(f"\nframes received {frames}, dropped at sensitivity {dropped}")


if __name__ == "__main__":
    main()
