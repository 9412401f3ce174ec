"""Zone failover economics: kill a zone mid-run, lose no answers.

The acceptance bar for the failure-tolerant gateway (docs/ZONES.md,
"Failover"): on a 4-zone site with per-zone checkpoints, SIGKILL-ing
one of the zone workers at the halfway mark must

1. **Recover byte-identically** — after the gateway respawns the dead
   zone from its zone-identity checkpoint and replays the gap, the
   multi-zone witness document equals the uninterrupted run's, byte for
   byte.
2. **Keep availability >= 0.99** — measured as the fraction of
   zone-ticks served by a live worker.

Run it via pytest (prints the JSON report)::

    pytest benchmarks/bench_zone_failover.py -s

or standalone (also writes BENCH_zone_failover.json)::

    PYTHONPATH=src python benchmarks/bench_zone_failover.py
"""

from __future__ import annotations

import json
import tempfile
import time

from repro.faults import FaultPlan, ZoneCrashFault
from repro.service.pipeline import ServiceConfig
from repro.zones import ZoneGateway, scaled_site_plan

try:
    from .conftest import emit
except ImportError:  # standalone: python benchmarks/bench_zone_failover.py

    def emit(title: str, body: str) -> None:
        bar = "=" * 72
        print(f"\n{bar}\n{title}\n{bar}\n{body}\n")

ENV = "Env1"
N_ZONES = 4
KILL_ZONE = "z1"
SEED = 0
DURATION_S = 10.0
KILL_AT_S = DURATION_S / 2
AVAILABILITY_FLOOR = 0.99

#: Same demanding query rate as bench_zone_scaleout: the estimator
#: dominates the tick, so the kill lands mid-batch rather than in an
#: idle loop.
CONFIG = ServiceConfig(query_interval_s=0.125, max_batch_size=16)


def _witness(report) -> str:
    return json.dumps(report.witness_document(), sort_keys=True)


def acceptance(clean, killed) -> dict:
    """The two acceptance checks of a killed run against the clean one."""
    availability = killed.summary["availability"]
    return {
        "availability_floor": AVAILABILITY_FLOOR,
        "availability": round(availability, 6),
        "availability_ok": availability >= AVAILABILITY_FLOOR,
        "recovery_identical": _witness(killed) == _witness(clean),
    }


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def run_benchmark() -> dict:
    plan = scaled_site_plan(ENV, N_ZONES, seed=SEED)
    crash = FaultPlan(
        faults=(ZoneCrashFault(zone_id=KILL_ZONE, at_s=KILL_AT_S),)
    )

    # Recovery witness: uninterrupted vs killed-and-respawned, both
    # with per-zone checkpoints enabled.
    with tempfile.TemporaryDirectory() as clean_dir:
        clean_s, clean = _timed(
            lambda: ZoneGateway(
                plan, CONFIG, checkpoint_dir=clean_dir
            ).run(DURATION_S)
        )
    with tempfile.TemporaryDirectory() as crash_dir:
        killed = ZoneGateway(
            plan, CONFIG, fault_plan=crash, checkpoint_dir=crash_dir
        ).run(DURATION_S)

    return {
        "env": ENV,
        "n_zones": N_ZONES,
        "seed": SEED,
        "duration_s": DURATION_S,
        "kill": {
            "zone": KILL_ZONE,
            "at_s": KILL_AT_S,
            "crashes": int(killed.summary["zone_crashes"]),
            "respawns": int(killed.summary["zone_respawns"]),
            "zones_down_at_end": int(killed.summary["zones_down"]),
            "results": int(killed.summary["results"]),
            "clean_results": int(clean.summary["results"]),
        },
        "timing_s": {
            "supervised_wall": round(clean_s, 4),
        },
        "acceptance": acceptance(clean, killed),
    }


def test_zone_failover_benchmark():
    report = run_benchmark()
    emit("zone failover", json.dumps(report, indent=2))
    acc = report["acceptance"]
    assert acc["recovery_identical"], (
        "post-respawn answers are not byte-identical to the "
        "uninterrupted run"
    )
    assert acc["availability_ok"], (
        f"availability {acc['availability']} is below the "
        f"{AVAILABILITY_FLOOR} floor after killing {KILL_ZONE}"
    )


if __name__ == "__main__":
    out = run_benchmark()
    emit("zone failover", json.dumps(out, indent=2))
    ok = all(
        out["acceptance"][key]
        for key in ("availability_ok", "recovery_identical")
    )
    with open("BENCH_zone_failover.json", "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print("wrote BENCH_zone_failover.json")
    raise SystemExit(0 if ok else 1)
