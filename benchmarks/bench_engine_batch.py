"""Batch-engine throughput: ``estimate_batch`` vs the scalar loop.

Two scored regimes at **T=64** on the paper's 4-reader lattice, each
gated at **>=5x** the localizations/sec of the scalar
``[est.estimate(r) for r in readings]`` loop while staying bitwise
identical. The speedup is timed with ``benchmarks/_interleave.py``:
``ROUNDS`` interleaved rounds each run the scalar loop and the batch
pass once, the speedup is the median of the per-round wall ratios, and
a regime passes only when that median's 95% order-statistic interval
lies wholly at or above 5x (:class:`_interleave.FloorGate`):

* *snapshot* — all T tags against one frozen reference lattice (the
  service micro-batch shape; the original ISSUE-3 bar);
* *independent* — every reading carries its own reference draw. Since
  the content-grouped path (ISSUE-10), unique lattices are deduped by
  byte content and pushed through one precomputed sparse bilinear
  operator, so this regime is scored too — it is the common shape of
  real traffic.

Report-only rows time the *fixed* cost of a serving batch: T=1 and
T=8 snapshot batches (the service caps a batch at 8), batch and scalar
loop in milliseconds per call. They carry no gate.

Run it via pytest (prints the JSON report)::

    pytest benchmarks/bench_engine_batch.py -s

or standalone (also writes ``BENCH_engine_batch.json`` at the repo
root)::

    PYTHONPATH=src python benchmarks/bench_engine_batch.py
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import replace

import numpy as np

from repro import VIREConfig, VIREEstimator, paper_testbed_grid
from repro.experiments.measurement import TrialSampler
from repro.rf import env3

try:
    from ._interleave import FloorGate, interleaved_rounds
    from .conftest import emit
except ImportError:  # standalone: python benchmarks/bench_engine_batch.py
    from _interleave import FloorGate, interleaved_rounds

    def emit(title: str, body: str) -> None:
        bar = "=" * 72
        print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


T_TAGS = 64
ROUNDS = 60
TARGET_SPEEDUP = 5.0
SEED = 42


def _build_readings():
    """T readings on the paper testbed, in both batching regimes.

    *snapshot*: all T tags observed against one frozen reference lattice
    (the streaming service's micro-batch shape — reference tags are
    static, so every request in a batch sees the same lattice);
    *independent*: each reading keeps its own reference draw (the
    experiment-runner shape, one fresh world per trial).
    """
    grid = paper_testbed_grid()
    sampler = TrialSampler(env3(), grid, seed=0)
    rng = np.random.default_rng(SEED)
    xmax, ymax = grid.tag_positions().max(axis=0)
    positions = rng.uniform(0.3, 0.9, (T_TAGS, 2)) * [xmax, ymax]
    independent = [sampler.reading_for((float(x), float(y))) for x, y in positions]
    lattice = independent[0].reference_rssi
    snapshot = [replace(r, reference_rssi=lattice) for r in independent]
    return grid, snapshot, independent


def _identical(scalar, batch) -> int:
    """Count bitwise mismatches between the two result lists."""
    mismatches = 0
    for a, b in zip(scalar, batch):
        same = [float(x).hex() for x in a.position] == [
            float(x).hex() for x in b.position
        ] and a.diagnostics == b.diagnostics
        mismatches += 0 if same else 1
    return mismatches


def _time_regime(
    est: VIREEstimator, readings, rounds: int = ROUNDS
) -> dict:
    """Paired, interleaved rounds of the scalar loop and the batch pass;
    the median walls, the speedup gate and the last round's bitwise
    check."""
    est.estimate(readings[0])  # warm both code paths
    est.estimate_batch(readings[:4])
    timings = interleaved_rounds(
        {
            "scalar": lambda: [est.estimate(r) for r in readings],
            "batch": lambda: est.estimate_batch(readings),
        },
        rounds,
    )
    gate = FloorGate.measure(timings, "scalar", "batch", TARGET_SPEEDUP)
    scalar_s = statistics.median(timings.walls["scalar"])
    batch_s = statistics.median(timings.walls["batch"])
    return {
        "scalar_wall_s": scalar_s,
        "batch_wall_s": batch_s,
        "scalar_localizations_per_s": len(readings) / scalar_s,
        "batch_localizations_per_s": len(readings) / batch_s,
        "speedup": gate.speedup,
        "speedup_interval": [gate.low, gate.high],
        "speedup_ok": gate.ok,
        "speedup_resolved": gate.resolved,
        "position_mismatches": _identical(
            timings.last["scalar"], timings.last["batch"]
        ),
    }


FIXED_COST_SIZES = (1, 8)
# Many short rounds: a sub-millisecond call is easily caught by a burst
# of load on a shared core, and the best round is the one that was not.
FIXED_COST_ROUNDS = 21
FIXED_COST_CALLS = 20


def _time_fixed_cost(est: VIREEstimator, readings) -> dict:
    """Per-call milliseconds of small snapshot batches, best of
    ``FIXED_COST_ROUNDS`` interleaved rounds of ``FIXED_COST_CALLS``
    calls each."""
    out = {}
    for t in FIXED_COST_SIZES:
        batch = readings[:t]
        est.estimate_batch(batch)
        best_scalar = best_batch = float("inf")
        for _ in range(FIXED_COST_ROUNDS):
            t0 = time.perf_counter()
            for _ in range(FIXED_COST_CALLS):
                [est.estimate(r) for r in batch]
            best_scalar = min(best_scalar, time.perf_counter() - t0)
            t0 = time.perf_counter()
            for _ in range(FIXED_COST_CALLS):
                est.estimate_batch(batch)
            best_batch = min(best_batch, time.perf_counter() - t0)
        out[f"t{t}"] = {
            "batch_ms_per_call": 1e3 * best_batch / FIXED_COST_CALLS,
            "scalar_ms_per_call": 1e3 * best_scalar / FIXED_COST_CALLS,
        }
    return out


def run_benchmark() -> dict:
    grid, snapshot, independent = _build_readings()
    est = VIREEstimator(grid, VIREConfig(target_total_tags=900))
    report = {
        "benchmark": "engine_batch",
        "t_tags": T_TAGS,
        "n_readers": 4,
        "grid": f"{grid.rows}x{grid.cols} paper testbed",
        "config": {"target_total_tags": 900},
        "seed": SEED,
        "rounds": ROUNDS,
        # Scored: T tags against one snapshot (the original ISSUE-3 bar).
        "snapshot": _time_regime(est, snapshot),
        # Scored since ISSUE-10: per-reading reference draws through the
        # content-grouped sparse-operator path.
        "independent": _time_regime(est, independent),
        # Report-only: the fixed cost of a small serving batch.
        "snapshot_fixed_cost": _time_fixed_cost(est, snapshot),
    }
    acc = report["acceptance"] = {
        "target_speedup": TARGET_SPEEDUP,
        "speedup_method": (
            "median of paired per-round scalar/batch wall ratios; passes "
            "when its 95% order-statistic interval lies wholly at or "
            "above the target"
        ),
    }
    for regime in ("snapshot", "independent"):
        row = report[regime]
        acc[f"{regime}_speedup"] = round(row["speedup"], 2)
        acc[f"{regime}_speedup_interval"] = [
            round(x, 2) for x in row["speedup_interval"]
        ]
        acc[f"{regime}_resolved"] = row["speedup_resolved"]
        acc[f"{regime}_ok"] = row["speedup_ok"]
    acc["bitwise_identical"] = (
        report["snapshot"]["position_mismatches"] == 0
        and report["independent"]["position_mismatches"] == 0
    )
    acc["passed"] = (
        acc["snapshot_ok"] and acc["independent_ok"] and acc["bitwise_identical"]
    )
    return report


def bench_engine_batch_speedup():
    report = run_benchmark()
    emit("Batch engine: estimate_batch vs scalar loop", json.dumps(report, indent=2))
    acc = report["acceptance"]
    assert acc["bitwise_identical"], report
    for regime in ("snapshot", "independent"):
        assert acc[f"{regime}_ok"], (
            f"{regime} speedup {acc[f'{regime}_speedup']}x, 95% interval "
            f"{acc[f'{regime}_speedup_interval']}, not wholly at or above "
            f"the {TARGET_SPEEDUP}x acceptance bar"
        )


if __name__ == "__main__":
    import pathlib
    import sys

    out = run_benchmark()
    text = json.dumps(out, indent=2)
    print(text)
    path = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine_batch.json"
    path.write_text(text + "\n")
    print(f"wrote {path}", file=sys.stderr)
    if not out["acceptance"]["passed"]:
        print("acceptance FAILED", file=sys.stderr)
        sys.exit(1)
