"""Self-healing calibration: residual statistics, trust machine, corrector.

The contracts under test (docs/CALIBRATION.md):

* every residual helper is NaN-safe by construction — masked frames,
  quorum-trimmed snapshots and zero-reference windows never warn and
  never produce garbage;
* the quarantine state machine is the CircuitBreaker mechanics applied
  to reference tags — votes, probation, readmit, re-quarantine;
* the corrector is answer-neutral under zero drift (*bitwise*, via the
  deadband and the return-the-same-object fast path) and converges to
  injected bias under synthetic drift;
* its state is a pure function of the record stream: checkpoint
  crash+resume with the corrector enabled stays byte-identical.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import (
    CalibrationPolicy,
    DriftCorrector,
    ResidualWindow,
    TrustState,
    decompose_residuals,
    nan_mad,
    nan_median,
)
from repro.calibration.corrector import TagTrust
from repro.exceptions import CheckpointError, ConfigurationError
from repro.faults import CalibrationDriftFault, FaultPlan
from repro.types import TrackingReading

from .test_service_recovery import (
    SessionService,
    mid_session_time,
    service_config,
    witness,
)
from .test_service_recovery import StubScenario as RecoveryScenario


# ---------------------------------------------------------------------------
# NaN-safe robust statistics
# ---------------------------------------------------------------------------


class TestNanStats:
    def test_median_and_mad_of_finite_values(self):
        assert nan_median([1.0, 2.0, 9.0]) == 2.0
        assert nan_mad([1.0, 2.0, 9.0]) == 1.0

    def test_nan_entries_are_ignored(self):
        assert nan_median([np.nan, 4.0, np.nan, 6.0]) == 5.0
        assert nan_mad([np.nan, 4.0, 6.0]) == 1.0

    def test_all_nan_returns_nan_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(nan_median([np.nan, np.nan]))
            assert math.isnan(nan_mad(np.full((3, 3), np.nan)))

    def test_empty_returns_nan_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(nan_median([]))
            assert math.isnan(nan_mad([]))


class TestResidualWindow:
    def test_expires_entries_older_than_window(self):
        win = ResidualWindow(window_s=2.0)
        for t in (0.0, 1.0, 2.0, 3.0):
            win.push(t, np.full((2, 3), t))
        assert len(win) == 3  # t=0 fell out at t=3
        stacked = win.stacked()
        assert stacked.shape == (3, 2, 3)
        assert stacked[0, 0, 0] == 1.0

    def test_empty_window_stacks_to_empty(self):
        win = ResidualWindow(window_s=5.0)
        assert win.stacked().shape == (0, 0, 0)

    def test_clear(self):
        win = ResidualWindow(window_s=5.0)
        win.push(0.0, np.zeros((1, 1)))
        win.clear()
        assert len(win) == 0


class TestDecompose:
    def test_reader_row_bias_is_recovered(self):
        resid = np.zeros((4, 2, 3))
        resid[:, 1, :] = 5.0  # reader 1 drifted by +5 dB
        bias, scores, _scale = decompose_residuals(resid)
        assert bias[0] == 0.0 and bias[1] == 5.0
        np.testing.assert_allclose(scores, 0.0)

    def test_tag_column_score_survives_bias_removal(self):
        resid = np.zeros((4, 2, 3))
        resid[:, :, 2] = -8.0  # tag 2 decayed
        resid[:, 0, :] += 3.0  # reader 0 drifted
        bias, scores, _scale = decompose_residuals(resid)
        assert bias[0] == 3.0
        assert scores[2] == -8.0
        assert scores[0] == 0.0

    def test_untrusted_columns_do_not_feed_reader_bias(self):
        resid = np.zeros((3, 2, 2))
        resid[:, :, 1] = 40.0  # one rotten tag
        trusted = np.array([True, False])
        bias, scores, _ = decompose_residuals(resid, trusted_columns=trusted)
        assert bias[0] == 0.0 and bias[1] == 0.0  # rot never leaks into bias
        assert scores[1] == 40.0  # but the rotten column is still scored

    def test_all_nan_column_scores_nan_without_warning(self):
        resid = np.zeros((3, 2, 2))
        resid[:, :, 1] = np.nan  # dead tag, stale series
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _bias, scores, _ = decompose_residuals(resid)
        assert math.isnan(scores[1])

    def test_zero_reference_window(self):
        bias, scores, scale = decompose_residuals(np.zeros((3, 2, 0)))
        assert bias.shape == (2,) and np.all(np.isnan(bias))
        assert scores.shape == (0,)
        assert math.isnan(scale)

    def test_empty_window(self):
        bias, scores, scale = decompose_residuals(np.empty((0, 0, 0)))
        assert bias.shape == (0,) and scores.shape == (0,)
        assert math.isnan(scale)

    def test_scale_needs_two_finite_scores(self):
        resid = np.zeros((3, 2, 2))
        resid[:, :, 1] = np.nan
        _, _, scale = decompose_residuals(resid)
        assert math.isnan(scale)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            decompose_residuals(np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# Policy validation
# ---------------------------------------------------------------------------


class TestPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_s": 0.0},
            {"min_samples": 0},
            {"bias_deadband_db": -1.0},
            {"max_correction_db": 0.0},
            {"anomaly_threshold_db": 0.0},
            {"anomaly_scale_gate": -0.5},
            {"quarantine_votes": 0},
            {"probation_s": 0.0},
            {"max_quarantined_fraction": 1.5},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            CalibrationPolicy(**kwargs)

    def test_with_produces_modified_copy(self):
        base = CalibrationPolicy()
        tweaked = base.with_(window_s=9.0)
        assert tweaked.window_s == 9.0
        assert base.window_s == 6.0


# ---------------------------------------------------------------------------
# Trust state machine
# ---------------------------------------------------------------------------


def make_trust(**changes) -> TagTrust:
    policy = CalibrationPolicy(quarantine_votes=3, probation_s=5.0)
    return TagTrust(policy.with_(**changes) if changes else policy)


class TestTagTrust:
    def test_votes_accumulate_to_quarantine(self):
        trust = make_trust()
        assert trust.record_anomaly(1.0, allow_quarantine=True) is None
        assert trust.record_anomaly(2.0, allow_quarantine=True) is None
        assert trust.record_anomaly(3.0, allow_quarantine=True) == "quarantine"
        assert trust.state == TrustState.QUARANTINED
        assert trust.excised

    def test_clean_tick_resets_votes(self):
        trust = make_trust()
        trust.record_anomaly(1.0, allow_quarantine=True)
        trust.record_anomaly(2.0, allow_quarantine=True)
        trust.record_normal()
        trust.record_anomaly(3.0, allow_quarantine=True)
        assert trust.state == TrustState.TRUSTED

    def test_probation_then_readmit(self):
        trust = make_trust(quarantine_votes=1)
        trust.record_anomaly(1.0, allow_quarantine=True)
        assert not trust.due_for_probation(5.9)
        assert trust.due_for_probation(6.0)
        assert trust.begin_probation() == "probation"
        assert trust.excised  # probation still excised
        assert trust.record_normal() == "readmit"
        assert trust.state == TrustState.TRUSTED
        assert trust.quarantined_at_s is None

    def test_failed_probation_requarantines_and_restarts_timer(self):
        trust = make_trust(quarantine_votes=1)
        trust.record_anomaly(1.0, allow_quarantine=True)
        trust.begin_probation()
        assert trust.record_anomaly(7.0, allow_quarantine=False) == "quarantine"
        assert trust.quarantined_at_s == 7.0

    def test_full_cap_saturates_votes_without_quarantine(self):
        trust = make_trust()
        for t in range(10):
            assert trust.record_anomaly(float(t), allow_quarantine=False) is None
        assert trust.state == TrustState.TRUSTED
        # First tick with a free slot flips it.
        assert trust.record_anomaly(11.0, allow_quarantine=True) == "quarantine"


# ---------------------------------------------------------------------------
# DriftCorrector unit behaviour
# ---------------------------------------------------------------------------

READERS = ("r0", "r1")
REFS = ("a", "b", "c", "d")


def make_corrector(**changes) -> DriftCorrector:
    policy = CalibrationPolicy(
        window_s=4.0, min_samples=2, quarantine_votes=2, probation_s=3.0,
        max_quarantined_fraction=0.25,
    )
    return DriftCorrector(
        READERS, REFS, policy.with_(**changes) if changes else policy
    )


def baseline() -> np.ndarray:
    return np.full((len(READERS), len(REFS)), -50.0)


def feed(corrector, matrices_and_times):
    for now_s, matrix in matrices_and_times:
        corrector.observe(matrix, now_s)


def make_reading(ref=None, trk=None, reader_ids=READERS, masked=False):
    n = len(REFS)
    k = len(reader_ids)
    return TrackingReading(
        reference_rssi=np.full((k, n), -50.0) if ref is None else ref,
        tracking_rssi=np.full(k, -55.0) if trk is None else trk,
        reference_positions=np.zeros((n, 2)),
        reader_ids=tuple(reader_ids),
        tag_id="tag-x",
        timestamp=1.0,
        masked=masked,
    )


class TestDriftCorrector:
    def test_arm_validates_shape(self):
        corrector = make_corrector()
        with pytest.raises(ConfigurationError):
            corrector.arm(np.zeros((3, 3)), 0.0)
        assert not corrector.armed

    def test_unarmed_is_inert(self):
        corrector = make_corrector()
        corrector.observe(baseline(), 1.0)
        reading = make_reading()
        assert corrector.correct_reading(reading) is reading

    def test_converges_to_injected_row_bias(self):
        corrector = make_corrector()
        corrector.arm(baseline(), 0.0)
        drifted = baseline()
        drifted[0, :] += 6.0  # r0 reads 6 dB hot
        feed(corrector, [(1.0, drifted), (2.0, drifted), (3.0, drifted)])
        assert corrector.bias_estimates() == {"r0": 6.0, "r1": 0.0}

    def test_deadband_snaps_to_exact_zero_and_reading_is_same_object(self):
        corrector = make_corrector()
        corrector.arm(baseline(), 0.0)
        noisy = baseline() + 0.4  # below the default deadband
        feed(corrector, [(1.0, noisy), (2.0, noisy), (3.0, noisy)])
        assert corrector.bias_estimates() == {"r0": 0.0, "r1": 0.0}
        assert corrector.raw_bias_estimates()["r0"] == pytest.approx(0.4)
        reading = make_reading()
        assert corrector.correct_reading(reading) is reading

    def test_correction_is_clamped(self):
        corrector = make_corrector(max_correction_db=5.0)
        corrector.arm(baseline(), 0.0)
        runaway = baseline()
        runaway[1, :] -= 40.0
        feed(corrector, [(1.0, runaway), (2.0, runaway)])
        assert corrector.bias_estimates()["r1"] == -5.0

    def test_correct_reading_subtracts_bias_from_whole_row(self):
        corrector = make_corrector()
        corrector.arm(baseline(), 0.0)
        drifted = baseline()
        drifted[0, :] += 6.0
        feed(corrector, [(1.0, drifted), (2.0, drifted)])
        out = corrector.correct_reading(make_reading())
        np.testing.assert_allclose(out.reference_rssi[0], -56.0)
        np.testing.assert_allclose(out.tracking_rssi[0], -61.0)
        np.testing.assert_allclose(out.reference_rssi[1], -50.0)
        assert not out.masked  # bias correction alone never masks

    def test_correct_reading_handles_subset_readers(self):
        corrector = make_corrector()
        corrector.arm(baseline(), 0.0)
        drifted = baseline()
        drifted[1, :] += 8.0
        feed(corrector, [(1.0, drifted), (2.0, drifted)])
        # Partial frame: only r1 survived quorum.
        reading = make_reading(
            ref=np.full((1, len(REFS)), -42.0),
            trk=np.array([-47.0]),
            reader_ids=("r1",),
            masked=True,
        )
        out = corrector.correct_reading(reading)
        np.testing.assert_allclose(out.reference_rssi[0], -50.0)
        np.testing.assert_allclose(out.tracking_rssi[0], -55.0)

    def test_anomalous_column_is_quarantined_and_excised(self):
        corrector = make_corrector()
        corrector.arm(baseline(), 0.0)
        rotten = baseline()
        rotten[:, 2] -= 30.0  # tag "c" decays at both readers
        # Tick 1 fills the window below min_samples; ticks 2 and 3 are
        # the two anomalous votes.
        feed(corrector, [(1.0, rotten), (2.0, rotten), (3.0, rotten)])
        assert corrector.excised_tags() == ("c",)
        out = corrector.correct_reading(make_reading())
        assert np.all(np.isnan(out.reference_rssi[:, 2]))
        assert out.masked
        kinds = [e["event"] for e in corrector.events]
        assert kinds == ["quarantine"]
        event = corrector.events[0]
        assert event["tag"] == "c" and event["t"] == 3.0
        json.dumps(corrector.events)  # witness-ready

    def test_all_nan_column_counts_as_anomalous(self):
        corrector = make_corrector()
        corrector.arm(baseline(), 0.0)
        silent = baseline()
        silent[:, 1] = np.nan  # tag "b" went dark
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            feed(corrector, [(1.0, silent), (2.0, silent), (3.0, silent)])
        assert corrector.excised_tags() == ("b",)

    def test_quarantine_cap_is_enforced(self):
        # 1/8 of 8 tags = 1 excision slot. (With only 4 tags two rotten
        # columns swamp the field median and the adaptive scale gate
        # correctly refuses to quarantine anything — tested below.)
        refs = tuple("abcdefgh")
        corrector = DriftCorrector(
            READERS,
            refs,
            CalibrationPolicy(
                window_s=4.0, min_samples=2, quarantine_votes=2,
                probation_s=3.0, max_quarantined_fraction=0.125,
            ),
        )
        corrector.arm(np.full((len(READERS), len(refs)), -50.0), 0.0)
        rotten = np.full((len(READERS), len(refs)), -50.0)
        rotten[:, 2] -= 30.0
        rotten[:, 3] -= 25.0  # two tags rot, only one slot
        feed(corrector, [(1.0, rotten), (2.0, rotten), (3.0, rotten)])
        assert corrector.excised_tags() == ("c",)

    def test_field_wide_rot_trips_the_scale_gate_not_quarantine(self):
        # Half the lattice rotting at once is indistinguishable from
        # reader drift; the MAD-adaptive threshold must hold fire
        # instead of amputating half the field.
        corrector = make_corrector()
        corrector.arm(baseline(), 0.0)
        rotten = baseline()
        rotten[:, 2] -= 30.0
        rotten[:, 3] -= 25.0
        feed(corrector, [(1.0, rotten), (2.0, rotten), (3.0, rotten)])
        assert corrector.excised_tags() == ()

    def test_quarantine_probation_readmit_cycle(self):
        corrector = make_corrector()
        corrector.arm(baseline(), 0.0)
        rotten = baseline()
        rotten[:, 0] -= 20.0
        feed(corrector, [(1.0, rotten), (2.0, rotten), (3.0, rotten)])
        assert corrector.excised_tags() == ("a",)
        # Tag heals; probation is due 3 s after the t=3 quarantine, and
        # by t=6 the rotten ticks have mostly expired from the window.
        healed = baseline()
        feed(corrector, [(4.0, healed), (5.0, healed), (6.0, healed)])
        assert corrector.excised_tags() == ()
        kinds = [e["event"] for e in corrector.events]
        assert kinds == ["quarantine", "probation", "readmit"]

    def test_checkpoint_state_is_json_native_and_tracks_trust(self):
        corrector = make_corrector()
        corrector.arm(baseline(), 0.0)
        rotten = baseline()
        rotten[:, 2] -= 30.0
        feed(corrector, [(1.0, rotten), (2.0, rotten), (3.0, rotten)])
        state = corrector.checkpoint_state()
        assert json.loads(json.dumps(state)) == state
        assert state["armed"] is True
        assert state["trust"]["c"]["state"] == TrustState.QUARANTINED
        assert state["events"] == 1

    def test_summary_exposes_per_reader_bias(self):
        corrector = make_corrector()
        corrector.arm(baseline(), 0.0)
        drifted = baseline()
        drifted[0, :] += 6.0
        feed(corrector, [(1.0, drifted), (2.0, drifted)])
        summary = corrector.summary()
        assert summary["calibration_bias_r0_db"] == 6.0
        assert summary["calibration_bias_r1_db"] == 0.0
        assert summary["calibration_quarantined"] == 0.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            DriftCorrector(("r0", "r0"), REFS)
        with pytest.raises(ConfigurationError):
            DriftCorrector(READERS, ("a", "a"))


# ---------------------------------------------------------------------------
# End-to-end: sessions, neutrality, checkpoint resume
# ---------------------------------------------------------------------------


def drift_plan(seed: int = 0) -> FaultPlan:
    return FaultPlan(
        [
            CalibrationDriftFault(
                "reader-0", drift_db_per_s=2.0, start_s=2.0, max_drift_db=8.0
            )
        ],
        seed=seed,
    )


def calibrated_config(**changes):
    return service_config(calibration=CalibrationPolicy(), **changes)


class TestSessionIntegration:
    def test_corrector_tracks_injected_drift_in_session(self):
        report = SessionService(7, calibrated_config()).run(
            RecoveryScenario(), 8.0, fault_plan=drift_plan()
        )
        bias = report.summary["calibration_bias_reader-0_db"]
        assert bias > 2.0  # ramp is fast; estimate must clearly engage
        assert report.summary["calibration_bias_reader-3_db"] == 0.0

    def test_witness_gains_events_key_only_when_events_happened(self):
        clean = SessionService(7, calibrated_config()).run(
            RecoveryScenario(), 6.0
        )
        assert "calibration_events" not in clean.witness_document()

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=3, deadline=None)
    def test_zero_drift_corrector_is_bitwise_answer_neutral(self, seed):
        off = SessionService(seed).run(RecoveryScenario(), 6.0)
        on = SessionService(seed, calibrated_config()).run(
            RecoveryScenario(), 6.0
        )
        assert witness(on) == witness(off)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zero_deadband_breaks_answer_neutrality(self, seed):
        """The neutrality gate above can fail: with no deadband the
        corrector chases zero-drift noise and the answers move."""
        off = SessionService(seed).run(RecoveryScenario(), 6.0)
        on = SessionService(
            seed,
            service_config(
                calibration=CalibrationPolicy(bias_deadband_db=0.0)
            ),
        ).run(RecoveryScenario(), 6.0)
        assert witness(on) != witness(off)

    def test_crash_resume_with_calibration_is_byte_identical(self, tmp_path):
        path = tmp_path / "calib.ckpt"
        config = calibrated_config()
        baseline_report = SessionService(11, config).run(
            RecoveryScenario(), 8.0, fault_plan=drift_plan()
        )
        with pytest.raises(BaseException):
            SessionService(11, config).run(
                RecoveryScenario(),
                8.0,
                fault_plan=drift_plan(),
                checkpoint_path=path,
                crash_point=__import__("repro.faults", fromlist=["CrashPoint"])
                .CrashPoint(at_s=mid_session_time(baseline_report)),
            )
        resumed = SessionService(11, config).run(
            RecoveryScenario(),
            8.0,
            fault_plan=drift_plan(),
            checkpoint_path=path,
            resume=True,
        )
        assert witness(resumed) == witness(baseline_report)

    def test_checkpoint_header_marks_calibration(self, tmp_path):
        path = tmp_path / "calib.ckpt"
        SessionService(11, calibrated_config()).run(
            RecoveryScenario(), 4.0, checkpoint_path=path
        )
        header = json.loads(path.read_text().splitlines()[0])
        assert header.get("calibration") is True

    def test_resume_without_calibration_rejects_calibrated_checkpoint(
        self, tmp_path
    ):
        path = tmp_path / "calib.ckpt"
        SessionService(11, calibrated_config()).run(
            RecoveryScenario(), 4.0, checkpoint_path=path
        )
        with pytest.raises(CheckpointError):
            SessionService(11).run(
                RecoveryScenario(), 4.0, checkpoint_path=path, resume=True
            )
