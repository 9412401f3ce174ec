"""Batch-engine throughput: ``estimate_batch`` vs the scalar loop.

Two scored regimes at **T=64** on the paper's 4-reader lattice, each
gated at **>=5x** the localizations/sec of the scalar
``[est.estimate(r) for r in readings]`` loop while staying bitwise
identical:

* *snapshot* — all T tags against one frozen reference lattice (the
  service micro-batch shape; the original ISSUE-3 bar);
* *independent* — every reading carries its own reference draw. Since
  the content-grouped path (ISSUE-10), unique lattices are deduped by
  byte content and pushed through one precomputed sparse bilinear
  operator, so this regime is scored too — it is the common shape of
  real traffic.

Run it via pytest (prints the JSON report)::

    pytest benchmarks/bench_engine_batch.py -s

or standalone (also writes ``BENCH_engine_batch.json`` at the repo
root)::

    PYTHONPATH=src python benchmarks/bench_engine_batch.py
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import numpy as np

from repro import VIREConfig, VIREEstimator, paper_testbed_grid
from repro.experiments.measurement import TrialSampler
from repro.rf import env3

try:
    from .conftest import emit
except ImportError:  # standalone: python benchmarks/bench_engine_batch.py

    def emit(title: str, body: str) -> None:
        bar = "=" * 72
        print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


T_TAGS = 64
REPEATS = 7
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


def _time_regime(est: VIREEstimator, readings) -> dict:
    """Best-of-``REPEATS`` walls for the scalar loop and the batch pass.

    Interleaved so machine-load drift biases both paths equally; best-of
    because timing noise only ever slows a run down.
    """
    est.estimate(readings[0])  # warm both code paths
    est.estimate_batch(readings[:4])
    best_scalar = best_batch = float("inf")
    scalar = batch = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        scalar = [est.estimate(r) for r in readings]
        best_scalar = min(best_scalar, time.perf_counter() - t0)
        t0 = time.perf_counter()
        batch = est.estimate_batch(readings)
        best_batch = min(best_batch, time.perf_counter() - t0)
    return {
        "scalar_wall_s": best_scalar,
        "batch_wall_s": best_batch,
        "scalar_localizations_per_s": len(readings) / best_scalar,
        "batch_localizations_per_s": len(readings) / best_batch,
        "speedup": best_scalar / best_batch,
        "position_mismatches": _identical(scalar, batch),
    }


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
        "repeats": REPEATS,
        # Scored: T tags against one snapshot (the original ISSUE-3 bar).
        "snapshot": _time_regime(est, snapshot),
        # Scored since ISSUE-10: per-reading reference draws through the
        # content-grouped sparse-operator path.
        "independent": _time_regime(est, independent),
    }
    report["acceptance"] = {
        "target_speedup": TARGET_SPEEDUP,
        "snapshot_speedup": round(report["snapshot"]["speedup"], 2),
        "independent_speedup": round(report["independent"]["speedup"], 2),
        "snapshot_ok": report["snapshot"]["speedup"] >= TARGET_SPEEDUP,
        "independent_ok": report["independent"]["speedup"] >= TARGET_SPEEDUP,
        "bitwise_identical": (
            report["snapshot"]["position_mismatches"] == 0
            and report["independent"]["position_mismatches"] == 0
        ),
    }
    report["acceptance"]["passed"] = (
        report["acceptance"]["snapshot_ok"]
        and report["acceptance"]["independent_ok"]
        and report["acceptance"]["bitwise_identical"]
    )
    return report


def bench_engine_batch_speedup():
    report = run_benchmark()
    emit("Batch engine: estimate_batch vs scalar loop", json.dumps(report, indent=2))
    acc = report["acceptance"]
    assert acc["bitwise_identical"], report
    assert acc["snapshot_ok"], (
        f"snapshot speedup {acc['snapshot_speedup']}x below the "
        f"{TARGET_SPEEDUP}x acceptance bar"
    )
    assert acc["independent_ok"], (
        f"independent-path speedup {acc['independent_speedup']}x below the "
        f"{TARGET_SPEEDUP}x acceptance bar"
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
