"""The benchmarks' 5% overhead gates still fail on real cost.

``bench_recovery`` and ``bench_calibration`` time their arms with
``benchmarks/_interleave.py`` (interleaved rounds, median of paired
per-round ratios). Each test below adds a known cost to the measured
arm only, runs the benchmark's own measurement (fewer rounds than the
benchmark's, to keep the suite fast) and requires the gate to trip:

* 10 ms of busy work per checkpointed session (at writer creation);
* 100 µs of busy work per write-ahead log line;
* 10 ms of busy work per corrected session (at corrector arming);
* 100 µs of busy work per recorded span, for ``bench_obs_overhead``'s
  enabled-tracer gate (a workload records ~240 spans in ~50 ms);
* 10 ms of busy work per batch pass, for ``bench_engine_batch``'s 5x
  speedup floor (a T=64 batch pass takes ~7 ms, the scalar loop ~40 ms).

Sessions last a few tens of milliseconds, so each injected cost is
several times the 5% ceiling (a 10 ms cost on a 40 ms session reads
~0.25).

The interval tests pin what "resolved" means on made-up walls: a median
just inside the ceiling (or above the floor) whose rounds spread across
it is unresolved. The
coverage tests run the method's null check (one arm timed twice) on
simulated walls with slow spells: its 95% interval must cover the true 0
at about that rate, and exclude 0 once the arms really differ.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from repro import VIREConfig, VIREEstimator, paper_testbed_grid
from repro.calibration.corrector import DriftCorrector
from repro.obs import Tracer
from repro.runtime import checkpoint
from repro.runtime.checkpoint import CheckpointWriter

from .conftest import load_benchmark

ROUNDS = 8


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _slowed(original, seconds: float):
    def slowed(*args, **kwargs):
        _busy(seconds)
        return original(*args, **kwargs)

    return slowed


@pytest.fixture(scope="module")
def interleave():
    return load_benchmark("_interleave")


@pytest.fixture(scope="module")
def bench_recovery():
    return load_benchmark("bench_recovery")


@pytest.fixture(scope="module")
def bench_calibration():
    return load_benchmark("bench_calibration")


@pytest.fixture(scope="module")
def bench_obs_overhead():
    return load_benchmark("bench_obs_overhead")


@pytest.fixture(scope="module")
def bench_engine_batch():
    return load_benchmark("bench_engine_batch")


class TestRecoveryGate:
    def test_10ms_per_checkpointed_session_trips(
        self, bench_recovery, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            CheckpointWriter, "__init__",
            _slowed(CheckpointWriter.__init__, 0.010),
        )
        acc = bench_recovery.run_benchmark(str(tmp_path), rounds=ROUNDS)[
            "acceptance"
        ]
        assert not acc["overhead_ok"]
        assert acc["witness_identical"]

    def test_100us_per_wal_line_trips(
        self, bench_recovery, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            checkpoint, "_dump_line", _slowed(checkpoint._dump_line, 100e-6)
        )
        acc = bench_recovery.run_benchmark(str(tmp_path), rounds=ROUNDS)[
            "acceptance"
        ]
        assert not acc["overhead_ok"]


class TestCalibrationGate:
    def test_10ms_per_corrected_session_trips(
        self, bench_calibration, monkeypatch
    ):
        monkeypatch.setattr(
            DriftCorrector, "arm", _slowed(DriftCorrector.arm, 0.010)
        )
        _, gate = bench_calibration.measure_overhead(rounds=ROUNDS)
        assert not gate.ok


class TestObsOverheadGate:
    def test_100us_per_recorded_span_trips(
        self, bench_obs_overhead, monkeypatch
    ):
        monkeypatch.setattr(Tracer, "span", _slowed(Tracer.span, 100e-6))
        est, readings = bench_obs_overhead._build_workload()
        _, gate = bench_obs_overhead.measure_enabled(
            est, readings, rounds=ROUNDS
        )
        assert not gate.ok
        assert gate.high > gate.ceiling


class TestEngineBatchGate:
    def test_10ms_per_batch_pass_trips(self, bench_engine_batch, monkeypatch):
        _, snapshot, _ = bench_engine_batch._build_readings()
        est = VIREEstimator(
            paper_testbed_grid(), VIREConfig(target_total_tags=900)
        )
        monkeypatch.setattr(
            est, "estimate_batch", _slowed(est.estimate_batch, 0.010)
        )
        row = bench_engine_batch._time_regime(est, snapshot, rounds=ROUNDS)
        assert not row["speedup_ok"]
        assert row["speedup_interval"][0] < bench_engine_batch.TARGET_SPEEDUP
        assert row["position_mismatches"] == 0


def _timings(interleave, ratios):
    base = [0.040] * len(ratios)
    return interleave.Timings(
        walls={"base": base, "arm": [b * (1 + r) for b, r in zip(base, ratios)]}
    )


class TestInterval:
    @pytest.mark.parametrize(
        "n, ranks",
        # 1-based ranks 6/15 and 22/39: the sign-test table's 95% bounds.
        [(5, None), (6, (0, 5)), (8, (0, 7)), (20, (5, 14)), (60, (21, 38))],
    )
    def test_rank_bounds(self, interleave, n, ranks):
        assert interleave.median_rank_bounds(n) == ranks

    @pytest.mark.parametrize("n", [6, 8, 20, 60])
    def test_bounds_cover_at_least_the_confidence(self, interleave, n):
        lo, _ = interleave.median_rank_bounds(n)
        outside = 2 * sum(math.comb(n, k) for k in range(lo + 1)) / 2**n
        assert outside <= 1 - interleave.CONFIDENCE

    def test_straddling_median_is_unresolved(self, interleave):
        # Median 0.047, rounds spread from 0.03 to 0.065.
        ratios = [0.03 + 0.035 * i / 59 for i in range(60)]
        gate = interleave.Gate.measure(
            _timings(interleave, ratios), "arm", "base", 0.05
        )
        assert gate.ok
        assert gate.low < 0.05 < gate.high
        assert not gate.resolved

    def test_tight_rounds_resolve_either_way(self, interleave):
        for centre, ok in ((0.02, True), (0.12, False)):
            ratios = [centre + 0.002 * (i % 5 - 2) for i in range(60)]
            gate = interleave.Gate.measure(
                _timings(interleave, ratios), "arm", "base", 0.05
            )
            assert gate.resolved
            assert gate.ok is ok
            assert gate.noise_floor == pytest.approx(0.002, abs=1e-9)

    def test_floor_gate_needs_the_whole_interval_above(self, interleave):
        # Speedups from 3x to 7.6x: the median (5.3x) clears 5x, the
        # interval does not.
        spread = [3.0 + 4.6 * i / 59 for i in range(60)]
        gate = interleave.FloorGate.measure(
            _timings(interleave, [x - 1.0 for x in spread]),
            "arm", "base", 5.0,
        )
        assert gate.speedup > 5.0 and gate.low < 5.0 < gate.high
        assert not gate.resolved and not gate.ok
        for centre, ok in ((6.0, True), (4.5, False)):
            tight = [centre + 0.02 * (i % 5 - 2) for i in range(60)]
            gate = interleave.FloorGate.measure(
                _timings(interleave, [x - 1.0 for x in tight]),
                "arm", "base", 5.0,
            )
            assert gate.resolved
            assert gate.ok is ok
            assert gate.speedup == pytest.approx(centre)

    def test_too_few_rounds_never_resolve(self, interleave):
        gate = interleave.Gate.measure(
            _timings(interleave, [0.0] * 5), "arm", "base", 0.05
        )
        assert (gate.low, gate.high) == (-math.inf, math.inf)
        assert not gate.resolved


def _simulated_rounds(interleave, rng, *, extra=0.0, rounds=60, spell_p=0.05):
    """Walls of one simulated 3-arm benchmark run, in the rotated order
    of :func:`interleaved_rounds`: 50 ms sessions with 3% noise, on a
    machine that flips between normal and 1.7x slower at random session
    boundaries. ``disabled_again`` is the null arm; ``extra`` gives it a
    real relative cost."""
    names = ["disabled", "enabled", "disabled_again"]
    cost = {"disabled": 1.0, "enabled": 1.06, "disabled_again": 1.0 + extra}
    walls = {name: [0.0] * rounds for name in names}
    slow = False
    for r in range(rounds):
        for i in range(len(names)):
            if rng.random() < spell_p:
                slow = not slow
            name = names[(r + i) % len(names)]
            walls[name][r] = (
                0.050 * cost[name] * (1.7 if slow else 1.0)
                * math.exp(rng.normal(0.0, 0.03))
            )
    return interleave.Timings(walls=walls)


class TestNullCheckCoverage:
    """The null check (one arm timed twice) on simulated runs: its 95%
    interval covers the true 0 at about the nominal rate, slow spells
    included, and excludes 0 once the arms really differ by 3%."""

    RUNS = 200

    def _covers_zero(self, interleave, extra):
        rng = np.random.default_rng(0)
        covered = 0
        for _ in range(self.RUNS):
            gate = interleave.Gate.measure(
                _simulated_rounds(interleave, rng, extra=extra),
                "disabled_again", "disabled", 0.15,
            )
            covered += gate.low <= 0.0 <= gate.high
        return covered / self.RUNS

    def test_null_interval_covers_zero(self, interleave):
        assert self._covers_zero(interleave, 0.0) >= 0.93

    def test_a_real_difference_is_excluded(self, interleave):
        assert self._covers_zero(interleave, 0.03) <= 0.10
