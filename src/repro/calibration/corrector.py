"""Closed-loop drift correction and reference-tag trust quarantine.

VIRE interpolates its virtual lattice from real reference tags at known
positions — the algorithm is exactly as good as those tags and the
reader calibrations measuring them. The paper assumes both are
trustworthy; :mod:`repro.faults` injects per-reader calibration drift
and reference-tag battery decay that silently violate that assumption.
This module closes the loop:

* every serving instant, the pipeline feeds the corrector the middleware's
  smoothed reference matrix; residuals against a clean post-warm-up
  baseline go into a sim-clock sliding window
  (:class:`~repro.calibration.residuals.ResidualWindow`);
* a robust median/MAD decomposition
  (:func:`~repro.calibration.residuals.decompose_residuals`) splits the
  window into **per-reader bias** (row structure — receiver drift) and
  **per-reference-tag anomaly scores** (column structure — tag decay);
* bias estimates feed back as corrections subtracted from incoming
  readings *before* estimation (:meth:`DriftCorrector.correct_reading`);
* anomaly scores drive a quarantine → probation → readmit state machine
  per reference tag (the :class:`~repro.service.health.CircuitBreaker`
  pattern, generalized from readers to reference tags): a quarantined
  tag's lattice column is excised (NaN + ``masked=True``), and the
  estimator's deterministic masked-lattice fill rebuilds the
  interpolation lattice without it.

Determinism contract (see docs/CALIBRATION.md): the corrector holds no
RNG and no wall-clock — its entire state is a pure function of the
seeded record stream, so checkpoint replay reconstructs it bit-exactly,
the quarantine/readmit event log is part of the session witness, and a
*disabled* corrector (``ServiceConfig.calibration is None``) leaves the
pipeline bit-identical to a build without this module. With the
corrector enabled but zero injected drift, the deadband forces every
correction to exactly ``0.0`` and :meth:`DriftCorrector.correct_reading`
returns the original reading object — answers stay bitwise identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Any, Iterable, Mapping

import numpy as np

from ..exceptions import ConfigurationError
from ..types import TrackingReading
from .residuals import ResidualWindow, decompose_residuals

__all__ = [
    "CalibrationPolicy",
    "TrustState",
    "TagTrust",
    "DriftCorrector",
]

class TrustState:
    """String constants for a reference tag's trust state."""

    TRUSTED = "trusted"
    QUARANTINED = "quarantined"
    PROBATION = "probation"


@dataclass(frozen=True)
class CalibrationPolicy:
    """Tuning knobs of the self-healing calibration loop.

    Parameters
    ----------
    window_s:
        Sim-clock length of the residual sliding window.
    min_samples:
        Ticks the window must hold before any estimate applies —
        corrections stay ``0.0`` and no tag can be quarantined earlier.
    bias_deadband_db:
        Bias magnitudes below this are snapped to exactly ``0.0``. The
        deadband is what makes a zero-drift run *bitwise* answer-neutral
        (noise-level bias estimates never touch a reading). Ambient
        human-movement disturbance produces window-median excursions of
        up to ~1 dB per reader in the fault-free testbed; the default
        clears that with margin while real drift (several dB and
        growing) crosses it within a couple of ticks.
    max_correction_db:
        Clamp on the applied per-reader correction (a runaway estimate
        must not be able to invert a reading).
    anomaly_threshold_db:
        A tag whose bias-removed median residual magnitude reaches this
        is anomalous. The effective threshold adapts upward to
        ``anomaly_scale_gate`` robust sigmas when the whole field is
        noisy, so global disturbances do not quarantine everything. The
        default sits above the worst ambient excursion seen in the
        fault-free testbed (~3.5 dB under human-movement disturbance)
        and far below real fault signatures (a decaying battery sags
        tens of dB), so a zero-fault run never quarantines.
    anomaly_scale_gate:
        Multiplier on the MAD-derived scale for the adaptive threshold.
    quarantine_votes:
        Consecutive anomalous ticks before a trusted tag is quarantined
        (the breaker's ``failure_threshold``, per tag).
    probation_s:
        Sim-clock seconds a quarantined tag waits before one probation
        re-check (the breaker's ``recovery_timeout_s``).
    max_quarantined_fraction:
        Hard cap on the fraction of reference tags simultaneously
        excised — the lattice fill needs surviving anchors (its own
        floor is 25% coverage) and quorum needs reference coverage, so
        the corrector refuses to amputate past this point even when
        more tags look anomalous.
    """

    window_s: float = 6.0
    min_samples: int = 3
    bias_deadband_db: float = 1.5
    max_correction_db: float = 12.0
    anomaly_threshold_db: float = 4.5
    anomaly_scale_gate: float = 4.0
    quarantine_votes: int = 3
    probation_s: float = 6.0
    max_quarantined_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ConfigurationError(f"window_s must be positive, got {self.window_s}")
        if self.min_samples < 1:
            raise ConfigurationError(f"min_samples must be >= 1, got {self.min_samples}")
        if self.bias_deadband_db < 0:
            raise ConfigurationError(
                f"bias_deadband_db must be >= 0, got {self.bias_deadband_db}"
            )
        if self.max_correction_db <= 0:
            raise ConfigurationError(
                f"max_correction_db must be positive, got {self.max_correction_db}"
            )
        if self.anomaly_threshold_db <= 0:
            raise ConfigurationError(
                f"anomaly_threshold_db must be positive, got {self.anomaly_threshold_db}"
            )
        if self.anomaly_scale_gate < 0:
            raise ConfigurationError(
                f"anomaly_scale_gate must be >= 0, got {self.anomaly_scale_gate}"
            )
        if self.quarantine_votes < 1:
            raise ConfigurationError(
                f"quarantine_votes must be >= 1, got {self.quarantine_votes}"
            )
        if self.probation_s <= 0:
            raise ConfigurationError(
                f"probation_s must be positive, got {self.probation_s}"
            )
        if not (0.0 <= self.max_quarantined_fraction <= 1.0):
            raise ConfigurationError(
                f"max_quarantined_fraction must be in [0, 1], "
                f"got {self.max_quarantined_fraction}"
            )

    def with_(self, **changes) -> "CalibrationPolicy":
        """Modified copy (thin wrapper over dataclasses.replace)."""
        return replace(self, **changes)


class TagTrust:
    """One reference tag's trust state machine.

    The :class:`~repro.service.health.CircuitBreaker` mechanics applied
    to a reference tag: consecutive anomalous ticks quarantine it, a
    sim-clock timeout grants one probation re-check, a clean probation
    tick readmits it and an anomalous one re-quarantines it (restarting
    the timeout). Driven exclusively by :class:`DriftCorrector`.
    """

    def __init__(self, policy: CalibrationPolicy):
        self.policy = policy
        self.state = TrustState.TRUSTED
        self.consecutive_anomalies = 0
        self.quarantined_at_s: float | None = None
        self.transitions = 0

    @property
    def excised(self) -> bool:
        """Whether the tag's lattice column is currently excluded."""
        return self.state != TrustState.TRUSTED

    def due_for_probation(self, now_s: float) -> bool:
        return (
            self.state == TrustState.QUARANTINED
            and self.quarantined_at_s is not None
            and now_s - self.quarantined_at_s >= self.policy.probation_s
        )

    def record_normal(self) -> str | None:
        """A clean tick; returns ``"readmit"`` on a probation readmit."""
        if self.state == TrustState.PROBATION:
            self.state = TrustState.TRUSTED
            self.consecutive_anomalies = 0
            self.quarantined_at_s = None
            self.transitions += 1
            return "readmit"
        if self.state == TrustState.TRUSTED:
            self.consecutive_anomalies = 0
        return None

    def record_anomaly(self, now_s: float, *, allow_quarantine: bool) -> str | None:
        """An anomalous tick; returns ``"quarantine"`` on a transition.

        ``allow_quarantine=False`` (the excision cap is full) leaves a
        trusted tag trusted with its vote counter saturated, so it
        quarantines on the first tick a slot frees up.
        """
        if self.state == TrustState.PROBATION:
            # Failed probe: straight back to quarantine, restart timer.
            self.state = TrustState.QUARANTINED
            self.quarantined_at_s = now_s
            self.transitions += 1
            return "quarantine"
        if self.state == TrustState.TRUSTED:
            self.consecutive_anomalies = min(
                self.consecutive_anomalies + 1, self.policy.quarantine_votes
            )
            if (
                self.consecutive_anomalies >= self.policy.quarantine_votes
                and allow_quarantine
            ):
                self.state = TrustState.QUARANTINED
                self.quarantined_at_s = now_s
                self.transitions += 1
                return "quarantine"
        return None

    def begin_probation(self) -> str:
        assert self.state == TrustState.QUARANTINED
        self.state = TrustState.PROBATION
        self.transitions += 1
        return "probation"


#: What DriftCorrector.checkpoint_cut reads off a tag's trust machine.
_TRUST_FIELDS = attrgetter(
    "state", "consecutive_anomalies", "quarantined_at_s", "transitions"
)


class DriftCorrector:
    """Online per-reader bias estimation + reference-tag quarantine.

    Parameters
    ----------
    reader_ids / reference_ids:
        Middleware ordering of readers (residual rows) and reference
        tags (residual columns / snapshot columns).
    policy:
        The loop's tuning knobs.

    Lifecycle: :meth:`arm` captures the clean baseline at the end of
    warm-up (the fault injector attaches *after* warm-up, so the
    baseline is trustworthy by construction); :meth:`observe` runs once
    per serving instant — live **and** checkpoint-replay, which is
    what makes the corrector's state replay-reconstructible; and
    :meth:`correct_reading` is applied to every snapshot before it
    reaches the estimator.
    """

    def __init__(
        self,
        reader_ids: Iterable[str],
        reference_ids: Iterable[str],
        policy: CalibrationPolicy | None = None,
    ):
        self.policy = policy or CalibrationPolicy()
        self.reader_ids = tuple(str(r) for r in reader_ids)
        self.reference_ids = tuple(str(t) for t in reference_ids)
        if len(set(self.reader_ids)) != len(self.reader_ids):
            raise ConfigurationError("duplicate reader ids")
        if len(set(self.reference_ids)) != len(self.reference_ids):
            raise ConfigurationError("duplicate reference tag ids")
        self._baseline: np.ndarray | None = None
        self._armed_at_s: float | None = None
        self._window = ResidualWindow(self.policy.window_s)
        self._bias_raw = {rid: 0.0 for rid in self.reader_ids}
        self._corrections = {rid: 0.0 for rid in self.reader_ids}
        self.trust = {tid: TagTrust(self.policy) for tid in self.reference_ids}
        # The excised columns, ascending; refreshed by observe, the only
        # place trust states change.
        self._excised_columns: tuple[int, ...] = ()
        self._events: list[dict[str, Any]] = []
        #: Readings :meth:`correct_reading` modified.
        self.corrected_readings = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def armed(self) -> bool:
        return self._baseline is not None

    def arm(self, baseline: np.ndarray, now_s: float) -> None:
        """Capture the expected-RSSI baseline from a clean matrix.

        Called once, between warm-up (coverage complete, injector not
        yet attached) and the first live batch. NaN baseline cells are
        tolerated — they simply never produce evidence.
        """
        baseline = np.asarray(baseline, dtype=np.float64)
        expected = (len(self.reader_ids), len(self.reference_ids))
        if baseline.shape != expected:
            raise ConfigurationError(
                f"baseline shape {baseline.shape} != (readers, references) {expected}"
            )
        self._baseline = baseline.copy()
        self._armed_at_s = float(now_s)

    # -- per-tick observation ------------------------------------------------

    def observe(self, observed: np.ndarray, now_s: float) -> None:
        """Fold one smoothed reference matrix into the residual window.

        Recomputes the per-reader bias estimates and per-tag anomaly
        scores, then drives every tag's trust state machine. Runs in
        live and replay instants alike — the corrector's state must be a
        pure function of the seeded stream for checkpoint resume.
        """
        if self._baseline is None:
            return
        observed = np.asarray(observed, dtype=np.float64)
        self._window.push(now_s, observed - self._baseline)
        n_refs = len(self.reference_ids)
        if len(self._window) < self.policy.min_samples:
            return
        excised = self._excised_columns
        trusted_cols = None  # every column (also when all are excised)
        if excised and len(excised) < n_refs:
            trusted_cols = np.ones(n_refs, dtype=bool)
            trusted_cols[list(excised)] = False
        reader_bias, tag_scores, scale = decompose_residuals(
            self._window.stacked(), trusted_columns=trusted_cols
        )
        reader_bias, tag_scores = reader_bias.tolist(), tag_scores.tolist()
        deadband = self.policy.bias_deadband_db
        bound = self.policy.max_correction_db
        for rid, raw in zip(self.reader_ids, reader_bias):
            if not math.isfinite(raw):
                raw = 0.0
            self._bias_raw[rid] = raw
            self._corrections[rid] = (
                0.0 if abs(raw) < deadband else max(-bound, min(bound, raw))
            )
        threshold = self.policy.anomaly_threshold_db
        if math.isfinite(scale):
            threshold = max(threshold, self.policy.anomaly_scale_gate * scale)
        trusted = TrustState.TRUSTED
        for (tid, trust), score in zip(self.trust.items(), tag_scores):
            # No finite evidence for a reference tag that should always
            # beacon is itself anomalous (battery death looks exactly
            # like this once the middleware series goes stale): a NaN
            # score is never below the threshold.
            anomalous = not abs(score) < threshold
            # A normal tick of a trusted tag with no votes changes
            # nothing; every other tick steps the tag's machine.
            if anomalous or trust.state != trusted or trust.consecutive_anomalies:
                self._step_trust(tid, anomalous, now_s, score)
        self._excised_columns = tuple(
            j for j, trust in enumerate(self.trust.values()) if trust.excised
        )

    def _step_trust(
        self, tag_id: str, anomalous: bool, now_s: float, score: float
    ) -> None:
        trust = self.trust[tag_id]
        if trust.due_for_probation(now_s):
            self._record_event(trust.begin_probation(), tag_id, now_s, score)
        if anomalous:
            # Only a trusted tag's vote reads the excision cap.
            transition = trust.record_anomaly(
                now_s,
                allow_quarantine=(
                    trust.state == TrustState.TRUSTED
                    and self._quarantine_slot_free()
                ),
            )
        else:
            transition = trust.record_normal()
        if transition is not None:
            self._record_event(transition, tag_id, now_s, score)

    def _quarantine_slot_free(self) -> bool:
        n_refs = len(self.reference_ids)
        if n_refs == 0:
            return False
        excised = sum(1 for t in self.trust.values() if t.excised)
        return (excised + 1) / n_refs <= self.policy.max_quarantined_fraction

    def _record_event(
        self, kind: str, tag_id: str, now_s: float, score: float
    ) -> None:
        event = {
            "event": kind,
            "tag": tag_id,
            "t": float(now_s),
            "score_db": float(score) if math.isfinite(score) else None,
        }
        self._events.append(event)

    # -- the feedback path ---------------------------------------------------

    def raw_bias_estimates(self) -> dict[str, float]:
        """Pre-deadband per-reader bias estimates, keyed by reader id."""
        return dict(self._bias_raw)

    def excised_tags(self) -> tuple[str, ...]:
        """Reference tags currently excluded from the lattice, sorted."""
        return tuple(sorted(self.reference_ids[j] for j in self._excised_columns))

    def correct_reading(self, reading: TrackingReading) -> TrackingReading:
        """Apply corrections + quarantine excision to one snapshot.

        Per-reader corrections are subtracted from that reader's whole
        row — reference *and* tracking RSSI, since a drifting receiver
        biases every tag it hears. Quarantined tags' columns are set to
        NaN and the reading forced ``masked=True``; the estimator's
        quorum + deterministic masked-lattice fill then rebuild the
        interpolation lattice without them.

        Returns the *original object* when nothing changes (unarmed,
        all corrections exactly ``0.0``, nothing quarantined) — the
        structural guarantee behind the zero-drift bitwise neutrality
        contract.
        """
        if self._baseline is None:
            return reading
        reader_ids = reading.reader_ids or self.reader_ids
        corrections = [self._corrections.get(str(r), 0.0) for r in reader_ids]
        excised = self._excised_columns
        if not excised and not any(corrections):
            return reading
        # Subtracting 0.0 leaves every value as it is (-0.0 and NaN too).
        shift = np.array(corrections)
        ref = np.subtract(
            reading.reference_rssi, shift[:, np.newaxis], dtype=np.float64
        )
        trk = np.subtract(reading.tracking_rssi, shift, dtype=np.float64)
        masked = bool(reading.masked)
        if excised:
            ref[:, excised] = np.nan
            masked = True
        self.corrected_readings += 1
        return replace(
            reading, reference_rssi=ref, tracking_rssi=trk, masked=masked
        )

    # -- reporting / checkpointing -------------------------------------------

    @property
    def events(self) -> tuple[Mapping[str, Any], ...]:
        """Quarantine/probation/readmit transitions, in occurrence order.

        JSON-native dicts — they join the session witness document and
        must byte-round-trip through ``json.dumps(sort_keys=True)``.
        """
        return tuple(self._events)

    def transitions_total(self) -> int:
        return sum(t.transitions for t in self.trust.values())

    def summary(self) -> dict[str, float]:
        """Headline numbers folded into the pipeline's metrics summary."""
        n_refs = len(self.reference_ids)
        excised = sum(1 for t in self.trust.values() if t.excised)
        out = {
            "calibration_quarantined": float(excised),
            "calibration_quarantine_ratio": (
                excised / n_refs if n_refs else 0.0
            ),
            "calibration_transitions": float(self.transitions_total()),
            "calibration_corrected_readings": float(self.corrected_readings),
            "calibration_max_abs_bias_db": max(
                (abs(b) for b in self._bias_raw.values()), default=0.0
            ),
        }
        for rid in self.reader_ids:
            out[f"calibration_bias_{rid}_db"] = self._corrections[rid]
        return out

    def checkpoint_cut(self) -> tuple:
        """The state :meth:`checkpoint_state` documents, as immutable
        primitives (cheap enough for every tick boundary): corrections in
        ``reader_ids`` order, trust fields in ``reference_ids`` order."""
        return (
            self.armed,
            tuple(self._corrections.values()),
            tuple(map(_TRUST_FIELDS, self.trust.values())),
            len(self._events),
        )

    def checkpoint_state(self, cut: tuple | None = None) -> dict[str, Any]:
        """JSON-native state snapshot for replay verification.

        Replay reconstructs the corrector (``observe`` runs in replay
        instants), so nothing here is *restored* — resume verifies the
        reconstruction against this snapshot exactly like the breakers.
        ``cut`` is an earlier :meth:`checkpoint_cut` (default: now).
        """
        armed, corrections, trust, events = (
            self.checkpoint_cut() if cut is None else cut
        )
        return {
            "armed": armed,
            "corrections": {
                rid: float(c)
                for rid, c in sorted(zip(self.reader_ids, corrections))
            },
            "trust": {
                tid: {
                    "state": state,
                    "consecutive_anomalies": anomalies,
                    "quarantined_at_s": quarantined_at_s,
                    "transitions": transitions,
                }
                for tid, (state, anomalies, quarantined_at_s, transitions)
                in sorted(zip(self.reference_ids, trust))
            },
            "events": events,
        }
