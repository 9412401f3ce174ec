"""The drift corrector against its list-window implementation (the oracle).

The corrector keeps its residual window in one ``(capacity, K, n_refs)``
array, takes each nan-median with one ``np.sort`` and the MAD from a
sorted list, and skips trust-machine steps that change nothing. The
oracle below is the implementation it replaced: a list of
``(t, matrix)`` entries stacked with ``np.stack`` on every tick, the
argsort ``_nanmedian``, a MAD from two ``np.median`` calls, and a
``_step_trust`` call per tag per tick. Every observable must agree bit
for bit: window contents, bias, scores, scale, corrections, corrected
readings, the event log and ``checkpoint_state``.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CalibrationPolicy, chaos_preset
from repro.calibration import DriftCorrector, ResidualWindow, decompose_residuals
from repro.calibration.residuals import MAD_SIGMA
from repro.service.metrics import MetricsRegistry
from repro.service.pipeline import _register_calibration_reads
from repro.types import TrackingReading

from .conftest import load_benchmark

ROOT = Path(__file__).resolve().parent.parent


# -- the oracle -----------------------------------------------------------------


class OracleWindow:
    def __init__(self, window_s: float):
        self.window_s = float(window_s)
        self._entries: list[tuple[float, np.ndarray]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, now_s, residuals) -> None:
        self._entries.append((float(now_s), np.asarray(residuals, dtype=np.float64)))
        horizon = float(now_s) - self.window_s
        while self._entries and self._entries[0][0] < horizon:
            self._entries.pop(0)

    def stacked(self) -> np.ndarray:
        if not self._entries:
            return np.empty((0, 0, 0))
        return np.stack([m for _, m in self._entries])


def oracle_nanmedian(a: np.ndarray, axis: tuple[int, int]) -> np.ndarray:
    (kept,) = {0, 1, 2} - set(axis)
    width = a.shape[axis[0]] * a.shape[axis[1]]
    if width == 0:
        return np.full(a.shape[kept], np.nan)
    flat = a.swapaxes(0, kept).reshape(a.shape[kept], width)
    count = width - np.isnan(flat).sum(axis=1)
    high = count // 2
    low = high - 1 + count % 2
    rows = np.arange(flat.shape[0])[:, np.newaxis]
    order = flat.argsort(axis=1)
    pair = flat[rows, order[rows, np.stack((low, high), axis=1)]]
    with np.errstate(invalid="ignore"):
        return pair.sum(axis=1) / 2.0


def oracle_mad(values) -> float:
    arr = np.asarray(values, dtype=np.float64)
    finite = arr[np.isfinite(arr)]
    if finite.size == 0:
        return float("nan")
    med = np.median(finite)
    return float(np.median(np.abs(finite - med)))


def oracle_decompose(stacked, *, trusted_columns=None):
    n_ticks, n_readers, n_refs = stacked.shape
    if n_ticks == 0 or n_refs == 0:
        return np.full(n_readers, np.nan), np.full(n_refs, np.nan), float("nan")
    rows = stacked
    if trusted_columns is not None:
        rows = stacked[:, :, trusted_columns]
    if rows.shape[2]:
        reader_bias = oracle_nanmedian(rows, axis=(0, 2))
    else:
        reader_bias = np.full(n_readers, np.nan)
    centered_bias = np.where(np.isfinite(reader_bias), reader_bias, 0.0)
    tag_scores = oracle_nanmedian(
        stacked - centered_bias[None, :, None], axis=(0, 1)
    )
    finite_scores = tag_scores[np.isfinite(tag_scores)]
    scale = float("nan")
    if finite_scores.size >= 2:
        scale = MAD_SIGMA * oracle_mad(finite_scores)
    return reader_bias, tag_scores, scale


class OracleCorrector(DriftCorrector):
    """The corrector's per-tick path as it was before the array window."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._window = OracleWindow(self.policy.window_s)

    def observe(self, observed, now_s):
        if self._baseline is None:
            return
        observed = np.asarray(observed, dtype=np.float64)
        self._window.push(now_s, observed - self._baseline)
        n_refs = len(self.reference_ids)
        if len(self._window) < self.policy.min_samples:
            return
        stacked = self._window.stacked()
        trusted_cols = np.array(
            [not self.trust[t].excised for t in self.reference_ids], dtype=bool
        )
        if n_refs and not trusted_cols.any():
            trusted_cols = None
        reader_bias, tag_scores, scale = oracle_decompose(
            stacked, trusted_columns=trusted_cols
        )
        reader_bias, tag_scores = reader_bias.tolist(), tag_scores.tolist()
        for k, rid in enumerate(self.reader_ids):
            raw = reader_bias[k] if math.isfinite(reader_bias[k]) else 0.0
            self._bias_raw[rid] = raw
            if abs(raw) < self.policy.bias_deadband_db:
                self._corrections[rid] = 0.0
            else:
                bound = self.policy.max_correction_db
                self._corrections[rid] = max(-bound, min(bound, raw))
        threshold = self.policy.anomaly_threshold_db
        if math.isfinite(scale):
            threshold = max(threshold, self.policy.anomaly_scale_gate * scale)
        for j, tid in enumerate(self.reference_ids):
            score = tag_scores[j] if n_refs else 0.0
            anomalous = (not math.isfinite(score)) or abs(score) >= threshold
            self._step_trust(tid, anomalous, now_s, score)

    def _step_trust(self, tag_id, anomalous, now_s, score):
        trust = self.trust[tag_id]
        if trust.due_for_probation(now_s):
            self._record_event(trust.begin_probation(), tag_id, now_s, score)
        if anomalous:
            transition = trust.record_anomaly(
                now_s, allow_quarantine=self._quarantine_slot_free()
            )
        else:
            transition = trust.record_normal()
        if transition is not None:
            self._record_event(transition, tag_id, now_s, score)

    def excised_tags(self):
        return tuple(sorted(t for t, trust in self.trust.items() if trust.excised))

    def correct_reading(self, reading):
        if self._baseline is None:
            return reading
        reader_ids = reading.reader_ids or self.reader_ids
        corrections = [self._corrections.get(str(r), 0.0) for r in reader_ids]
        column = {t: j for j, t in enumerate(self.reference_ids)}
        excised = [
            column[t]
            for t, trust in self.trust.items()
            if trust.excised and t in column
        ]
        if not excised and not any(c != 0.0 for c in corrections):
            return reading
        ref = np.array(reading.reference_rssi, dtype=np.float64, copy=True)
        trk = np.array(reading.tracking_rssi, dtype=np.float64, copy=True)
        for i, c in enumerate(corrections):
            if c != 0.0:
                ref[i, :] -= c
                trk[i] -= c
        masked = bool(reading.masked)
        if excised:
            for j in sorted(excised):
                ref[:, j] = np.nan
            masked = True
        self.corrected_readings += 1
        return replace(reading, reference_rssi=ref, tracking_rssi=trk, masked=masked)

    def checkpoint_state(self, cut=None):
        return {
            "armed": self.armed,
            "corrections": {
                rid: float(self._corrections[rid]) for rid in sorted(self.reader_ids)
            },
            "trust": {
                tid: {
                    "state": trust.state,
                    "consecutive_anomalies": trust.consecutive_anomalies,
                    "quarantined_at_s": trust.quarantined_at_s,
                    "transitions": trust.transitions,
                }
                for tid, trust in sorted(self.trust.items())
            },
            "events": len(self._events),
        }


# -- comparison -----------------------------------------------------------------


def canon(value):
    """``value`` with every float spelled by its bits (``-0.0`` apart from
    ``0.0``; every NaN alike)."""
    if isinstance(value, float):
        return "nan" if math.isnan(value) else value.hex()
    if isinstance(value, np.ndarray):
        return [str(value.dtype), list(value.shape), canon(value.tolist())]
    if isinstance(value, dict):
        return {str(k): canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    return value


def observables(corrector: DriftCorrector) -> dict:
    # The corrector keeps no registry: render the reads its owner (the
    # pipeline) registers over it.
    registry = MetricsRegistry()
    _register_calibration_reads(registry, corrector)
    return {
        "raw_bias": corrector.raw_bias_estimates(),
        "events": [dict(e) for e in corrector.events],
        "state": corrector.checkpoint_state(),
        "excised": corrector.excised_tags(),
        "summary": corrector.summary(),
        "transitions": corrector.transitions_total(),
        "metrics": registry.render_prometheus(),
    }


# -- hypothesis -----------------------------------------------------------------

_cells = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -1.5, 3.0, -40.0]),
    st.floats(-60.0, 60.0, allow_nan=False),
)


_zeros = st.sampled_from([0.0, -0.0, 0.0, -0.0, np.nan, 1.0, -1.0])


@st.composite
def matrices(draw, k: int, n: int):
    flat = draw(st.lists(_cells, min_size=1, max_size=24))
    values = np.resize(np.array(flat, dtype=np.float64), (k, n))
    if n and draw(st.booleans()):
        values[:, draw(st.integers(0, n - 1))] = np.nan  # dead tag
    if draw(st.booleans()):
        values[draw(st.integers(0, k - 1)), :] = np.nan  # stale reader
    if draw(st.integers(0, 9)) == 0:
        values[:] = np.nan  # total outage
    return values


@st.composite
def scenarios(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(0, 8))
    policy = CalibrationPolicy(
        window_s=draw(st.sampled_from([0.5, 1.0, 2.5, 6.0, 20.0])),
        min_samples=draw(st.integers(1, 4)),
        bias_deadband_db=draw(st.sampled_from([0.0, 0.5, 1.5])),
        max_correction_db=draw(st.sampled_from([2.0, 12.0])),
        anomaly_threshold_db=draw(st.sampled_from([0.5, 4.5, 30.0])),
        anomaly_scale_gate=draw(st.sampled_from([0.0, 1.0, 4.0])),
        quarantine_votes=draw(st.integers(1, 3)),
        probation_s=draw(st.sampled_from([0.5, 2.0, 6.0])),
        max_quarantined_fraction=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
    )
    base = draw(matrices(k, n))
    ticks = []
    t = draw(st.sampled_from([0.0, 3.0]))
    for _ in range(draw(st.integers(1, 30))):
        # Irregular spacing: repeats, short and long gaps (expiry).
        t += draw(st.sampled_from([0.0, 0.1, 0.5, 0.5, 1.0, 2.0, 7.0]))
        ticks.append((t, draw(matrices(k, n))))
    return k, n, policy, base, ticks


def _reading(k, n, rng, masked, reader_ids):
    ref = rng.uniform(-70.0, -30.0, size=(len(reader_ids), n))
    if masked:
        ref[rng.random(ref.shape) < 0.3] = np.nan
    return TrackingReading(
        reference_rssi=ref,
        tracking_rssi=rng.uniform(-70.0, -30.0, size=len(reader_ids)),
        reference_positions=np.zeros((n, 2)),
        reader_ids=reader_ids,
        tag_id="tag-x",
        timestamp=1.0,
        masked=masked,
    )


class TestCorrectorDifferential:
    @settings(max_examples=150, deadline=None)
    @given(scenario=scenarios(), seed=st.integers(0, 2**16))
    def test_every_observable_matches_the_oracle(self, scenario, seed):
        k, n, policy, base, ticks = scenario
        readers = tuple(f"reader-{i}" for i in range(k))
        refs = tuple(f"ref-{j}" for j in range(n))
        new = DriftCorrector(readers, refs, policy)
        old = OracleCorrector(readers, refs, policy)
        rng = np.random.default_rng(seed)
        for corrector in (new, old):
            corrector.arm(base, ticks[0][0])
        for t, observed in ticks:
            with np.errstate(all="ignore"):
                new.observe(observed, t)
                old.observe(observed, t)
            assert canon(new._window.stacked()) == canon(old._window.stacked())
            assert canon(observables(new)) == canon(observables(old))
            if n == 0:
                continue
            subset = readers[: rng.integers(1, k + 1)]
            for reader_ids in [readers] + ([subset] if subset != readers else []):
                masked = bool(rng.integers(0, 2))
                reading = _reading(k, n, rng, masked, reader_ids)
                got = new.correct_reading(reading)
                want = old.correct_reading(reading)
                assert (got is reading) == (want is reading)
                assert got.masked == want.masked
                assert got.reference_rssi.tobytes() == want.reference_rssi.tobytes()
                assert got.tracking_rssi.tobytes() == want.tracking_rssi.tobytes()
        # The cheap cut documents the same state as a document built now.
        assert new.checkpoint_state(new.checkpoint_cut()) == old.checkpoint_state()

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(
            st.integers(0, 9), st.integers(0, 4), st.integers(0, 12)
        ),
        data=st.data(),
    )
    def test_decomposition_matches_the_oracle(self, shape, data):
        # Signed-zero ties at the middle of a row are where sorting
        # routes can differ: half the windows are mostly zeros.
        pool = data.draw(st.sampled_from([_cells, _zeros]))
        cells = data.draw(st.lists(pool, min_size=1, max_size=48))
        window = np.resize(np.array(cells, dtype=np.float64), shape)
        mask = data.draw(
            st.none()
            | st.lists(st.booleans(), min_size=shape[2], max_size=shape[2])
        )
        trusted = None if mask is None else np.array(mask, dtype=bool)
        with np.errstate(all="ignore"):
            want = oracle_decompose(window, trusted_columns=trusted)
        got = decompose_residuals(window, trusted_columns=trusted)
        assert canon(list(got)) == canon(list(want))

    @settings(max_examples=200, deadline=None)
    @given(
        window_s=st.sampled_from([0.0, 0.5, 2.0, 6.0]),
        steps=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0, 10.0]),
                st.booleans(),
            ),
            max_size=60,
        ),
    )
    def test_window_matches_the_list_window(self, window_s, steps):
        new, old = ResidualWindow(window_s), OracleWindow(window_s)
        t = 0.0
        for i, (dt, clear) in enumerate(steps):
            t += dt
            if clear and i % 7 == 0:
                new.clear()
                old._entries.clear()
            matrix = np.full((2, 3), float(i))
            matrix[0, 0] = -0.0 if i % 2 else np.nan
            new.push(t, matrix)
            old.push(t, matrix)
            assert len(new) == len(old)
            assert canon(new.stacked()) == canon(old.stacked())

    def test_window_view_is_read_only_and_shape_changes_need_an_empty_window(self):
        win = ResidualWindow(5.0)
        win.push(0.0, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            win.stacked()[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="shape"):
            win.push(1.0, np.zeros((3, 2)))
        win.clear()
        win.push(2.0, np.zeros((3, 2)))
        assert win.stacked().shape == (1, 3, 2)


class TestCommittedEvents:
    def test_drift_events_equal_the_committed_benchmark(self):
        """``BENCH_calibration.json``'s event log is a second oracle."""
        committed = json.loads((ROOT / "BENCH_calibration.json").read_text())
        bench = load_benchmark("bench_calibration")
        report = bench._run(
            chaos_preset("drift", seed=bench.SEED), CalibrationPolicy()
        )
        assert [dict(e) for e in report.calibration_events] == (
            committed["calibration_events"]
        )
