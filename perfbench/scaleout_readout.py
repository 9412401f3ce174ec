"""One-off traced readout of the zone scale-out benchmark's two arms.

    python3 perfbench/scaleout_readout.py

Runs the zoned (4 zones) and monolithic (1 merged zone) arms of
``benchmarks/bench_zone_scaleout.py`` with its settings (Env1, seed 0,
10 simulated seconds, a query every 0.125 s, batches of 16) under the
same layer timers as ``run.py --trace 1``, and prints each arm's
localizations/s and layer shares. The arms run twice: first in a fresh
process in the benchmark's order (zoned, then monolithic; this is what
its speed-up measures), then again in the now warm process. Both arms
run 16 readers; the monolith samples every beacon at all 16, a zone
only at its own 4.
"""

from __future__ import annotations

import sys
import time

import run

DURATION_S = 10.0
SEED = 0


def main() -> int:
    run.load_program()
    from layers import LAYERS, LayerTracer, Patcher
    from repro.service.pipeline import ServiceConfig
    from repro.zones import ZoneGateway, monolithic_site_plan, scaled_site_plan

    config = ServiceConfig(query_interval_s=0.125, max_batch_size=16)
    arms = {
        "zoned": scaled_site_plan("Env1", 4, seed=SEED),
        "monolithic": monolithic_site_plan("Env1", 4, seed=SEED),
    }
    for attempt in ("first run", "second run"):
        lps = {}
        for name, plan in arms.items():
            tracer = LayerTracer()
            with Patcher() as patcher:
                tracer.install(patcher)
                t0 = time.perf_counter()
                report = ZoneGateway(plan, config).run(DURATION_S)
                wall = time.perf_counter() - t0
            counts = tracer.counters()
            lps[name] = report.summary["results"] / wall
            print(
                f"{attempt}, {name}: {report.summary['results']:.0f} answers "
                f"in {wall:.2f} s = {lps[name]:.1f} localizations/s, "
                f"rf.calls {counts['rf.calls']}, "
                f"beacons {counts['hardware.simulator.beacons']}"
            )
            busy = {layer: tracer.self_s.get(layer, 0.0) for layer in LAYERS}
            for layer, s in sorted(busy.items(), key=lambda kv: -kv[1]):
                if s >= 0.001 * wall:
                    print(f"  {layer:22s} {s:8.3f} s  share {s / wall:.4f}")
            print(f"  unattributed_share {1.0 - sum(busy.values()) / wall:.4f}")
        print(f"{attempt}: zoned/monolithic = {lps['zoned'] / lps['monolithic']:.2f}x\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
