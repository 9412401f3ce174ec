"""Tracer overhead: instrumented hot path with tracing off vs on.

The ISSUE-5 acceptance bar for :mod:`repro.obs`: the instrumentation
threaded through ``core.estimator`` and ``engine.batch`` must cost

* **<= 5 %** with the tracer *disabled* (the ambient ``NULL_TRACER`` —
  the production default; every instrumentation point is one
  context-variable read plus a no-op context manager), and
* **<= 15 %** with a real :class:`~repro.obs.Tracer` *enabled*
  (span allocation, attribute coercion, wall-clock reads),

and in every mode the answers must stay **bitwise identical**: tracing
may never perturb a coordinate.

The disabled cost is *priced*, not timed: the instrumentation points
one workload hits, times the measured cost of one no-op point, over the
workload's wall. Timer noise cannot decide it. The enabled cost is
timed with ``benchmarks/_interleave.py``: paired, interleaved rounds of
the disabled and enabled arms, the median of their per-round wall
ratios and a 95% interval for it. The enabled gate passes only when
that interval lies wholly at or below the budget; an interval that
straddles it fails.

The workload is the serving system's hot unit: scalar ``estimate`` calls
plus one vectorized ``estimate_batch`` pass over the paper testbed.

Run it via pytest (prints the JSON report)::

    pytest benchmarks/bench_obs_overhead.py -s

or standalone (also writes ``BENCH_obs_overhead.json`` at the repo
root)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro import VIREConfig, VIREEstimator, paper_testbed_grid
from repro.experiments.measurement import TrialSampler
from repro.obs import Tracer, use_tracer
from repro.rf import env3

try:
    from ._interleave import Gate, interleaved_rounds
    from .conftest import emit
except ImportError:  # standalone: python benchmarks/bench_obs_overhead.py
    from _interleave import Gate, interleaved_rounds

    def emit(title: str, body: str) -> None:
        bar = "=" * 72
        print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


T_TAGS = 48
ROUNDS = 60
SEED = 42
DISABLED_BUDGET = 0.05  # +5% max with the null tracer
ENABLED_BUDGET = 0.15   # +15% max with a recording tracer


def _build_workload():
    grid = paper_testbed_grid()
    sampler = TrialSampler(env3(), grid, seed=0)
    rng = np.random.default_rng(SEED)
    xmax, ymax = grid.tag_positions().max(axis=0)
    positions = rng.uniform(0.2, 0.9, (T_TAGS, 2)) * [xmax, ymax]
    readings = [
        sampler.reading_for((float(x), float(y))) for x, y in positions
    ]
    est = VIREEstimator(grid, VIREConfig(target_total_tags=900))
    return est, readings


def _run_once(est, readings):
    scalar = [est.estimate(r) for r in readings]
    batch = est.estimate_batch(readings)
    return scalar, batch


def _fingerprint(scalar, batch) -> list[str]:
    """Bitwise hex rendering of every produced coordinate."""
    out = []
    for result in (*scalar, *batch):
        out.append(float(result.position[0]).hex())
        out.append(float(result.position[1]).hex())
    return out


def _run_traced(est, readings):
    """One workload under a fresh recording tracer, so spans cannot
    accumulate across rounds."""
    with use_tracer(Tracer()):
        return _run_once(est, readings)


def measure_enabled(est, readings, rounds: int = ROUNDS) -> tuple:
    """``(timings, gate)``: the enabled tracer's overhead over the
    disabled one, from interleaved paired rounds. The disabled arm runs
    twice under two names; the second one's paired overhead is the
    method's null check."""
    _run_once(est, readings)  # warm caches and code paths
    timings = interleaved_rounds(
        {
            "disabled": lambda: _run_once(est, readings),
            "enabled": lambda: _run_traced(est, readings),
            "disabled_again": lambda: _run_once(est, readings),
        },
        rounds,
    )
    return timings, Gate.measure(
        timings, "enabled", "disabled", ENABLED_BUDGET
    )


def _null_site_cost_s(samples: int = 200_000) -> float:
    """Wall cost of ONE disabled instrumentation point.

    This is exactly what the hot paths pay when no tracer is installed:
    a context-variable read, a kwargs dict, and the shared no-op span's
    ``__enter__``/``__exit__``.
    """
    from repro.obs import current_tracer

    t0 = time.perf_counter()
    for _ in range(samples):
        with current_tracer().span("bench.site", tag="x", masked=False):
            pass
    return (time.perf_counter() - t0) / samples


def run_benchmark(rounds: int = ROUNDS) -> dict:
    est, readings = _build_workload()
    timings, gate = measure_enabled(est, readings, rounds)
    null = Gate.measure(timings, "disabled_again", "disabled", ENABLED_BUDGET)
    disabled = min(timings.best("disabled"), timings.best("disabled_again"))

    # Count the instrumentation points one workload actually hits, then
    # price the disabled path analytically: sites x no-op cost. This is
    # the true overhead vs hypothetically-uninstrumented code, immune to
    # the timer noise that dwarfs it in an end-to-end A/B.
    spans_tracer = Tracer()
    with use_tracer(spans_tracer):
        _run_once(est, readings)
    site_cost = _null_site_cost_s()
    disabled_overhead = (
        spans_tracer.spans_recorded * site_cost / max(disabled, 1e-12)
    )
    fingerprints = {
        arm: _fingerprint(*out) for arm, out in timings.last.items()
    }

    report = {
        "benchmark": "obs_overhead",
        "t_tags": T_TAGS,
        "rounds": rounds,
        "seed": SEED,
        "workload": f"{T_TAGS} scalar estimates + one estimate_batch pass",
        "disabled_wall_s": disabled,
        "enabled_wall_s": timings.best("enabled"),
        "null_check_overhead": round(null.overhead, 4),
        "null_check_interval": [round(null.low, 4), round(null.high, 4)],
        "instrumentation_points_per_workload": spans_tracer.spans_recorded,
        "null_site_cost_ns": round(1e9 * site_cost, 1),
        "disabled_overhead_fraction": round(disabled_overhead, 6),
        "enabled_overhead_fraction": round(gate.overhead, 6),
        "enabled_overhead_interval": [round(gate.low, 4), round(gate.high, 4)],
    }
    report["acceptance"] = {
        "disabled_budget": DISABLED_BUDGET,
        "enabled_budget": ENABLED_BUDGET,
        "enabled_method": (
            "median of paired per-round wall ratios; passes when its 95% "
            "interval lies wholly at or below the budget"
        ),
        "disabled_ok": report["disabled_overhead_fraction"]
        <= DISABLED_BUDGET,
        "enabled_ok": gate.high <= ENABLED_BUDGET,
        "bitwise_identical": len(set(map(tuple, fingerprints.values())))
        == 1,
    }
    return report


def bench_obs_overhead():
    report = run_benchmark()
    emit(
        "Tracer overhead: disabled (null) vs enabled (recording)",
        json.dumps(report, indent=2),
    )
    acc = report["acceptance"]
    assert acc["bitwise_identical"], "tracing perturbed the answers"
    assert acc["disabled_ok"], (
        f"disabled-tracer overhead "
        f"{report['disabled_overhead_fraction']:+.2%} exceeds "
        f"{DISABLED_BUDGET:.0%}"
    )
    low, high = report["enabled_overhead_interval"]
    assert acc["enabled_ok"], (
        f"enabled-tracer overhead "
        f"{report['enabled_overhead_fraction']:+.1%} (95% interval "
        f"[{low:+.1%}, {high:+.1%}]) is not wholly within "
        f"{ENABLED_BUDGET:.0%}"
    )


if __name__ == "__main__":
    import pathlib
    import sys

    out = run_benchmark()
    text = json.dumps(out, indent=2)
    print(text)
    path = (
        pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_obs_overhead.json"
    )
    path.write_text(text + "\n")
    print(f"wrote {path}", file=sys.stderr)
    acc = out["acceptance"]
    if not (acc["disabled_ok"] and acc["enabled_ok"]
            and acc["bitwise_identical"]):
        print("acceptance FAILED", file=sys.stderr)
        sys.exit(1)
