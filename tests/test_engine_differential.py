"""Differential harness: scalar vs batch engine.

Two implementations of the same pipeline run the same seeded workloads
side by side:

* the scalar ``VIREEstimator.estimate`` loop — the reference;
* ``BatchEngine(est)`` — must be **bitwise identical** to the scalar
  loop: positions compared as IEEE-754 hex, diagnostics compared
  structurally, failures compared by exception type *and* message.

Workloads deliberately cover the regimes the grouped path special-cases:
clean snapshot batches (shared reference object), independent batches
(per-reading references), NaN-masked readings, quorum-trimmed readings
(a fully dark reader row), quarantined-column readings (one reference
tag excised across all readers) and mixed batches with error-provoking
readings interleaved.

The comparison itself is checked too: a single flipped position bit or
a one-ulp threshold diagnostic must make it fail.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest

from repro import TrackingReading, VIREConfig, VIREEstimator, paper_testbed_grid
from repro.engine import BatchEngine
from repro.exceptions import ReproError

from .test_engine_properties import (
    assert_outcomes_identical,
    scalar_outcomes,
)

GRID = paper_testbed_grid()
REF_POSITIONS = GRID.tag_positions()
N_TAGS = GRID.n_tags
K = 4


# -- seeded workload builders -------------------------------------------------


def _reading(reference, tracking, masked=False) -> TrackingReading:
    return TrackingReading(
        reference_rssi=np.asarray(reference, dtype=np.float64),
        tracking_rssi=np.asarray(tracking, dtype=np.float64),
        reference_positions=REF_POSITIONS,
        masked=masked,
    )


def _rssi(rng, shape):
    return rng.uniform(-95.0, -45.0, size=shape)


def snapshot_batch(seed: int, t: int = 12) -> list[TrackingReading]:
    """T tags against one shared reference array (the micro-batch case)."""
    rng = np.random.default_rng(seed)
    reference = _rssi(rng, (K, N_TAGS))
    return [_reading(reference, _rssi(rng, K)) for _ in range(t)]


def independent_batch(seed: int, t: int = 12) -> list[TrackingReading]:
    """Every reading its own reference draw (the independent path)."""
    rng = np.random.default_rng(seed)
    return [_reading(_rssi(rng, (K, N_TAGS)), _rssi(rng, K)) for _ in range(t)]


def nan_masked_batch(seed: int, t: int = 10) -> list[TrackingReading]:
    """Masked readings with scattered NaN holes in the reference matrix."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(t):
        reference = _rssi(rng, (K, N_TAGS))
        holes = rng.random((K, N_TAGS)) < 0.15
        reference[holes] = np.nan
        out.append(_reading(reference, _rssi(rng, K), masked=True))
    return out


def quorum_trimmed_batch(seed: int, t: int = 8) -> list[TrackingReading]:
    """Masked readings with one fully dark reader (quorum drops it)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(t):
        reference = _rssi(rng, (K, N_TAGS))
        reference[i % K, :] = np.nan
        out.append(_reading(reference, _rssi(rng, K), masked=True))
    return out


def quarantined_column_batch(seed: int, t: int = 8) -> list[TrackingReading]:
    """Masked readings with one reference tag excised across all readers
    — the shape the calibration quarantine produces."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(t):
        reference = _rssi(rng, (K, N_TAGS))
        reference[:, i % N_TAGS] = np.nan
        out.append(_reading(reference, _rssi(rng, K), masked=True))
    return out


def mixed_batch(seed: int) -> list[TrackingReading]:
    """Every regime interleaved, plus error-provoking readings.

    ``TrackingReading`` itself rejects non-finite/mis-shaped inputs, so
    the error cases reachable at estimate time are a reference-layout
    mismatch (the reading's tag positions are not the estimator's grid)
    and a quorum refusal (every reader dark) — both must come out of
    the batch engine with the scalar exception type and message, at the same
    batch positions.
    """
    rng = np.random.default_rng(seed)
    shared = _rssi(rng, (K, N_TAGS))
    bad_layout = TrackingReading(
        reference_rssi=_rssi(rng, (K, N_TAGS)),
        tracking_rssi=_rssi(rng, K),
        reference_positions=REF_POSITIONS + 0.37,
    )
    all_dark = _reading(
        np.full((K, N_TAGS), np.nan), _rssi(rng, K), masked=True
    )
    return [
        independent_batch(seed + 1, 2)[0],
        bad_layout,
        _reading(shared, _rssi(rng, K)),
        nan_masked_batch(seed + 2, 1)[0],
        all_dark,
        _reading(shared, _rssi(rng, K)),
        quorum_trimmed_batch(seed + 3, 1)[0],
        quarantined_column_batch(seed + 4, 1)[0],
        independent_batch(seed + 5, 2)[1],
    ]


WORKLOADS = {
    "snapshot": snapshot_batch,
    "independent": independent_batch,
    "nan_masked": nan_masked_batch,
    "quorum_trimmed": quorum_trimmed_batch,
    "quarantined_column": quarantined_column_batch,
    "mixed": mixed_batch,
}

CONFIGS = {
    "adaptive": VIREConfig(),
    "fixed": VIREConfig(threshold_mode="fixed", fixed_threshold_db=2.0),
    "landmarc_fallback": VIREConfig(empty_fallback="landmarc"),
    "paper_literal": VIREConfig(w1_mode="paper-literal", connectivity=8),
    # A tight fixed threshold empties some intersections: batches mix
    # live tags with per-reading EstimationErrors — the ladder's
    # "error" rung exercised inside one vectorized group.
    "error_fallback": VIREConfig(
        threshold_mode="fixed", fixed_threshold_db=0.3, empty_fallback="error"
    ),
}


def _seed(workload: str, config_name: str) -> int:
    """Deterministic per-case seed (``hash`` is randomized per process)."""
    import zlib

    return zlib.crc32(f"{workload}/{config_name}".encode())


def _estimator(config: VIREConfig) -> VIREEstimator:
    return VIREEstimator(GRID, config)


# -- bitwise identity ---------------------------------------------------------


class TestExactTierBitwise:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_exact_batch_equals_scalar(self, workload, config_name):
        est = _estimator(CONFIGS[config_name])
        readings = WORKLOADS[workload](seed=_seed(workload, config_name))
        scalar = scalar_outcomes(est, readings)
        batch = BatchEngine(est).estimate_outcomes(readings)
        assert_outcomes_identical(scalar, batch)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_exact_default_engine_route(self, workload):
        """``est.estimate_outcomes`` (the service seam) uses the grouped
        path and stays bitwise identical too."""
        est = _estimator(CONFIGS["adaptive"])
        readings = WORKLOADS[workload](seed=99)
        scalar = scalar_outcomes(est, readings)
        assert_outcomes_identical(scalar, est.estimate_outcomes(readings))

    def test_estimate_batch_raises_first_scalar_error(self):
        est = _estimator(CONFIGS["adaptive"])
        readings = mixed_batch(seed=7)
        first_error = next(
            o for o in scalar_outcomes(est, readings) if isinstance(o, ReproError)
        )
        with pytest.raises(type(first_error), match=None) as excinfo:
            BatchEngine(est).estimate_batch(readings)
        assert str(excinfo.value) == str(first_error)


# -- the bitwise gate itself must be able to fail -----------------------------


def _flip_lowest_bit(x: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    (out,) = struct.unpack("<d", struct.pack("<q", bits ^ 1))
    return out


class TestBitwiseGateCanFail:
    """Inject a one-bit/one-ulp difference into an otherwise identical
    batch: :func:`assert_outcomes_identical` must reject it."""

    def _identical_pair(self):
        est = _estimator(CONFIGS["adaptive"])
        readings = independent_batch(seed=17, t=6)
        scalar = scalar_outcomes(est, readings)
        batch = BatchEngine(est).estimate_outcomes(readings)
        assert_outcomes_identical(scalar, batch)  # the unperturbed pair
        return scalar, batch

    def test_one_flipped_position_bit_trips_the_gate(self):
        scalar, batch = self._identical_pair()
        x, y = batch[3].position
        batch[3] = dataclasses.replace(
            batch[3], position=(x, _flip_lowest_bit(y))
        )
        with pytest.raises(AssertionError):
            assert_outcomes_identical(scalar, batch)

    def test_one_ulp_threshold_diagnostic_trips_the_gate(self):
        scalar, batch = self._identical_pair()
        diagnostics = dict(batch[2].diagnostics)
        diagnostics["threshold_db"] = float(
            np.nextafter(diagnostics["threshold_db"], np.inf)
        )
        batch[2] = dataclasses.replace(batch[2], diagnostics=diagnostics)
        with pytest.raises(AssertionError):
            assert_outcomes_identical(scalar, batch)
