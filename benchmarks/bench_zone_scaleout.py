"""Zone scale-out economics: N shared-nothing zones vs one monolith.

The question behind ``repro.zones`` (docs/ZONES.md): on a site N times
the paper's testbed, is running N zone workers actually faster than one
monolithic pipeline over the merged deployment — *without changing any
answer*? Two checks:

1. **Throughput** — the 4-zone deployment must localize at >= 2.5x the
   monolithic baseline's localizations/s on the identical site (same
   rooms, same 16 readers, same 36 tags, same virtual-tag density).
   The win is algorithmic, not parallelism: VIRE's elimination cost
   scales with readers x virtual cells, so four small per-zone grids
   beat one merged site grid even on a single core.
2. **Determinism** — the zoned run repeated under the same seed must
   produce a byte-identical multi-zone witness.

Run it via pytest (prints the JSON report)::

    pytest benchmarks/bench_zone_scaleout.py -s

or standalone (also writes BENCH_zone_scaleout.json)::

    PYTHONPATH=src python benchmarks/bench_zone_scaleout.py
"""

from __future__ import annotations

import json
import time

from repro.service.pipeline import ServiceConfig
from repro.zones import ZoneGateway, monolithic_site_plan, scaled_site_plan

try:
    from .conftest import emit
except ImportError:  # standalone: python benchmarks/bench_zone_scaleout.py

    def emit(title: str, body: str) -> None:
        bar = "=" * 72
        print(f"\n{bar}\n{title}\n{bar}\n{body}\n")

ENV = "Env1"
N_ZONES = 4
SEED = 0
DURATION_S = 10.0
SPEEDUP_FLOOR = 2.5

#: Service knobs for both arms: a demanding query rate so the estimator
#: dominates the tick (the regime scale-out exists for), identical for
#: the zoned and monolithic deployments.
CONFIG = ServiceConfig(query_interval_s=0.125, max_batch_size=16)


def _witness(report) -> str:
    return json.dumps(report.witness_document(), sort_keys=True)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def run_benchmark() -> dict:
    zoned_plan = scaled_site_plan(ENV, N_ZONES, seed=SEED)
    mono_plan = monolithic_site_plan(ENV, N_ZONES, seed=SEED)

    # 1) Throughput, zoned vs monolithic, identical site and load.
    zoned_s, zoned = _timed(
        lambda: ZoneGateway(zoned_plan, CONFIG).run(DURATION_S)
    )
    mono_s, mono = _timed(
        lambda: ZoneGateway(mono_plan, CONFIG).run(DURATION_S)
    )
    zoned_lps = zoned.summary["results"] / zoned_s
    mono_lps = mono.summary["results"] / mono_s
    speedup = zoned_lps / mono_lps if mono_lps > 0 else float("inf")

    # 2) Same seed, same plan: the witness must repeat byte-for-byte.
    _, zoned_again = _timed(
        lambda: ZoneGateway(zoned_plan, CONFIG).run(DURATION_S)
    )
    repeat_identical = _witness(zoned) == _witness(zoned_again)

    return {
        "env": ENV,
        "n_zones": N_ZONES,
        "seed": SEED,
        "duration_s": DURATION_S,
        "site": {
            "zoned_results": int(zoned.summary["results"]),
            "mono_results": int(mono.summary["results"]),
            "readers_per_arm": 4 * N_ZONES,
            "tracking_tags_per_arm": sum(
                len(z.tracking_tags) for z in zoned_plan
            ),
        },
        "timing_s": {
            "zoned_wall": round(zoned_s, 4),
            "mono_wall": round(mono_s, 4),
        },
        "throughput": {
            "zoned_localizations_per_s": round(zoned_lps, 2),
            "mono_localizations_per_s": round(mono_lps, 2),
        },
        "acceptance": {
            "speedup_floor": SPEEDUP_FLOOR,
            "speedup": round(speedup, 2),
            "speedup_ok": speedup >= SPEEDUP_FLOOR,
            "repeat_identical": repeat_identical,
        },
    }


def test_zone_scaleout_benchmark():
    report = run_benchmark()
    emit("zone scale-out", json.dumps(report, indent=2))
    acc = report["acceptance"]
    assert acc["repeat_identical"], (
        "the zoned run is not reproducible under its seed"
    )
    assert acc["speedup_ok"], (
        f"zoned throughput is only {acc['speedup']}x the monolith "
        f"(floor {SPEEDUP_FLOOR}x): {report['throughput']}"
    )


if __name__ == "__main__":
    out = run_benchmark()
    emit("zone scale-out", json.dumps(out, indent=2))
    ok = all(
        out["acceptance"][key]
        for key in ("speedup_ok", "repeat_identical")
    )
    with open("BENCH_zone_scaleout.json", "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print("wrote BENCH_zone_scaleout.json")
    raise SystemExit(0 if ok else 1)
