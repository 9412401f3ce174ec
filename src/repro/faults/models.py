"""Composable, seeded fault models for the record path.

Every model is a frozen dataclass (a pure *description*) with a
:meth:`~FaultModel.compile` method that binds it to a named RNG stream
and returns a stateful :class:`CompiledFault`. Compiled faults transform
one :class:`~repro.hardware.readers.ReadingRecord` at a time:

``apply(record, now, emit) -> (release_time_s, record) | None``

* ``None`` — the record was dropped by the fault;
* ``(now, record)`` — passed through (possibly with modified RSSI);
* ``(now + d, record)`` — delayed delivery (the injector buffers it).

``emit(kind, **fields)`` reports state transitions (outage start/end,
burst-state changes, tag deaths) so the injector can record and count them.

Scope: every record model here has ``touches(reader_id, tag_id)``. A
record it does not touch (its ``reader_id``/``tag_id`` names another
reader or tag) passes ``apply`` unchanged, draws nothing and emits
nothing, so the injector routes each record only through the faults
that touch it.

Determinism contract: a compiled fault consumes randomness only from the
generator handed to it at compile time, which the
:class:`~repro.faults.plan.FaultPlan` derives per-fault from the plan
seed — so adding a fault to a plan never perturbs the draws of another,
and the same seed always reproduces the same fault schedule. Burst loss
and delay jitter take their uniform draws a block at a time: the same
values, in the same order, as one ``rng.random()`` call a draw.

The zone-scoped faults at the end of this module are different: they
never touch a record, draw no randomness and have no ``compile()``.
They are plain schedules (a one-shot time or a window) that the zone
gateway's :class:`~repro.zones.failover.ZoneChannel` reads directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from ..exceptions import ConfigurationError
from ..hardware.readers import ReadingRecord

__all__ = [
    "Emit",
    "CompiledFault",
    "FaultModel",
    "ReaderOutageFault",
    "BurstLossFault",
    "TagDeathFault",
    "CalibrationDriftFault",
    "DelayFault",
    "ZONE_SCOPE",
    "ZoneCrashFault",
    "WorkerHangFault",
    "ZoneLinkLossFault",
    "SlowZoneFault",
    "is_zone_fault",
]

#: Callback signature used by compiled faults to report transitions.
Emit = Callable[..., None]


@runtime_checkable
class CompiledFault(Protocol):
    """A stateful fault bound to its RNG stream."""

    #: the immutable model this state was compiled from
    model: "FaultModel"

    def apply(
        self, record: ReadingRecord, now_s: float, emit: Emit
    ) -> tuple[float, ReadingRecord] | None:
        """Transform one record; see module docstring for the contract."""
        ...


@runtime_checkable
class FaultModel(Protocol):
    """The immutable description of one fault."""

    def compile(self, rng: np.random.Generator) -> CompiledFault:
        """Bind the model to an RNG stream, returning mutable state."""
        ...


class _Uniforms:
    """A generator's ``random()`` draws, taken from it a block at a time.

    Each call returns the same double, in the same order, as one
    ``rng.random()`` call would: ``rng.random(n)`` fills with that very
    sequence. Only the generator's own position runs up to a block ahead
    of the draws handed out, and nothing else draws from it.
    """

    BLOCK = 256

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.ahead: list[float] = []  # the next draws, last one first

    def __call__(self) -> float:
        if not self.ahead:
            self.ahead = self.rng.random(self.BLOCK).tolist()[::-1]
        return self.ahead.pop()


def _ensure_time(value: float, name: str) -> float:
    v = float(value)
    if not math.isfinite(v) or v < 0:
        raise ConfigurationError(f"{name} must be finite and >= 0, got {value}")
    return v


def _ensure_prob(value: float, name: str) -> float:
    v = float(value)
    if not (0.0 <= v <= 1.0):
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
    return v


# ---------------------------------------------------------------------------
# Scheduled reader outage / flapping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReaderOutageFault:
    """A reader goes dark for a scheduled window, optionally flapping.

    Parameters
    ----------
    reader_id:
        The reader whose records are suppressed.
    start_s / duration_s:
        The outage window ``[start, start + duration)`` in simulation
        seconds. ``duration_s=math.inf`` models a permanent failure.
    flapping_period_s:
        If set, the reader *flaps* inside the window instead of staying
        dark: each period starts with ``flap_duty`` of down-time followed
        by up-time. ``None`` (default) = solid outage.
    flap_duty:
        Fraction of each flapping period spent down.
    """

    reader_id: str
    start_s: float
    duration_s: float
    flapping_period_s: float | None = None
    flap_duty: float = 0.5

    def __post_init__(self) -> None:
        if not self.reader_id:
            raise ConfigurationError("reader_id must be non-empty")
        _ensure_time(self.start_s, "start_s")
        if not self.duration_s > 0:
            raise ConfigurationError(
                f"duration_s must be positive, got {self.duration_s}"
            )
        if self.flapping_period_s is not None and not self.flapping_period_s > 0:
            raise ConfigurationError(
                f"flapping_period_s must be positive, got {self.flapping_period_s}"
            )
        _ensure_prob(self.flap_duty, "flap_duty")

    def down_at(self, now_s: float) -> bool:
        """Whether the reader is dark at ``now_s`` (pure, deterministic)."""
        if not (self.start_s <= now_s < self.start_s + self.duration_s):
            return False
        if self.flapping_period_s is None:
            return True
        phase = (now_s - self.start_s) % self.flapping_period_s
        return phase < self.flap_duty * self.flapping_period_s

    def touches(self, reader_id: str, tag_id: str) -> bool:
        """Whether records of ``(reader_id, tag_id)`` can be affected."""
        return reader_id == self.reader_id

    def compile(self, rng: np.random.Generator) -> "_CompiledOutage":
        del rng  # fully scheduled: no randomness
        return _CompiledOutage(self)


class _CompiledOutage:
    def __init__(self, model: ReaderOutageFault):
        self.model = model
        self._was_down = False

    def apply(self, record, now_s, emit):
        if record.reader_id != self.model.reader_id:
            return (now_s, record)
        down = self.model.down_at(now_s)
        if down != self._was_down:
            self._was_down = down
            emit(
                "reader_outage_start" if down else "reader_outage_end",
                reader=self.model.reader_id,
            )
        return None if down else (now_s, record)


# ---------------------------------------------------------------------------
# Gilbert–Elliott burst packet loss
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BurstLossFault:
    """Bursty frame loss via the Gilbert–Elliott two-state Markov chain.

    The channel alternates between a *good* state (loss probability
    ``loss_good``) and a *bad* state (``loss_bad``); per matching record
    the chain transitions good→bad with ``p_enter_bad`` and bad→good
    with ``p_exit_bad``. The classic parametrization reproduces the
    bursty (not i.i.d.) losses of congested RF environments.

    Parameters
    ----------
    reader_id:
        Restrict to one reader; ``None`` applies to every record.
    p_enter_bad / p_exit_bad:
        Markov transition probabilities (per record observed).
    loss_bad / loss_good:
        Drop probability while in each state.
    start_s / duration_s:
        Active window; defaults to always-on.
    """

    reader_id: str | None = None
    p_enter_bad: float = 0.05
    p_exit_bad: float = 0.4
    loss_bad: float = 0.9
    loss_good: float = 0.0
    start_s: float = 0.0
    duration_s: float = math.inf

    def __post_init__(self) -> None:
        _ensure_prob(self.p_enter_bad, "p_enter_bad")
        _ensure_prob(self.p_exit_bad, "p_exit_bad")
        _ensure_prob(self.loss_bad, "loss_bad")
        _ensure_prob(self.loss_good, "loss_good")
        _ensure_time(self.start_s, "start_s")
        if not self.duration_s > 0:
            raise ConfigurationError(
                f"duration_s must be positive, got {self.duration_s}"
            )

    def touches(self, reader_id: str, tag_id: str) -> bool:
        """Whether records of ``(reader_id, tag_id)`` can be affected."""
        return self.reader_id is None or reader_id == self.reader_id

    def compile(self, rng: np.random.Generator) -> "_CompiledBurstLoss":
        return _CompiledBurstLoss(self, rng)


class _CompiledBurstLoss:
    def __init__(self, model: BurstLossFault, rng: np.random.Generator):
        self.model = model
        self._uniform = _Uniforms(rng)
        self._bad = False

    def apply(self, record, now_s, emit):
        m = self.model
        if m.reader_id is not None and record.reader_id != m.reader_id:
            return (now_s, record)
        if not (m.start_s <= now_s < m.start_s + m.duration_s):
            return (now_s, record)
        # Transition first (per observed record), then sample the loss.
        u_transition = self._uniform()
        if self._bad:
            if u_transition < m.p_exit_bad:
                self._bad = False
                emit("burst_state_good", reader=record.reader_id)
        else:
            if u_transition < m.p_enter_bad:
                self._bad = True
                emit("burst_state_bad", reader=record.reader_id)
        loss_p = m.loss_bad if self._bad else m.loss_good
        if loss_p > 0.0 and self._uniform() < loss_p:
            return None
        return (now_s, record)


# ---------------------------------------------------------------------------
# Tag battery decay -> beacon death (also: reference-tag failure)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TagDeathFault:
    """A tag's battery decays and eventually dies.

    Before death the transmit power sags (RSSI reduced by
    ``decay_db_per_s`` times the time spent in the decay window); at the
    death time every subsequent record of the tag is suppressed — the
    middleware then sees the series go stale exactly as with a real dead
    battery. Pointing this at a ``ref-*`` id models *reference-tag
    failure*, the hardest partial-input case for VIRE.

    Parameters
    ----------
    tag_id:
        The dying tag.
    death_time_s:
        Exact death time; ``None`` draws it uniformly from
        ``death_window_s`` at compile time (seeded → reproducible).
    death_window_s:
        ``(lo, hi)`` window for the random draw.
    decay_db_per_s:
        RSSI sag rate during the ``decay_duration_s`` before death.
    decay_duration_s:
        Length of the brown-out ramp preceding death.
    recovery_time_s:
        Optional battery swap: at this instant the tag resumes beaconing
        at full power (no sag — fresh battery) and a ``tag_recovery``
        event is emitted. Must be strictly after the death time; with a
        random death draw, after the whole ``death_window_s``. Lets
        fault-end recovery — e.g. a quarantined reference tag being
        readmitted (:mod:`repro.calibration`) — be exercised
        deterministically.
    """

    tag_id: str
    death_time_s: float | None = None
    death_window_s: tuple[float, float] = (30.0, 120.0)
    decay_db_per_s: float = 0.0
    decay_duration_s: float = 0.0
    recovery_time_s: float | None = None

    def __post_init__(self) -> None:
        if not self.tag_id:
            raise ConfigurationError("tag_id must be non-empty")
        if self.death_time_s is not None:
            _ensure_time(self.death_time_s, "death_time_s")
        lo, hi = self.death_window_s
        if not (0 <= lo <= hi):
            raise ConfigurationError(
                f"death_window_s must satisfy 0 <= lo <= hi, got {self.death_window_s}"
            )
        if self.decay_db_per_s < 0:
            raise ConfigurationError(
                f"decay_db_per_s must be >= 0, got {self.decay_db_per_s}"
            )
        _ensure_time(self.decay_duration_s, "decay_duration_s")
        if self.recovery_time_s is not None:
            _ensure_time(self.recovery_time_s, "recovery_time_s")
            death_bound = (
                self.death_time_s if self.death_time_s is not None else hi
            )
            if self.recovery_time_s <= death_bound:
                raise ConfigurationError(
                    f"recovery_time_s must be > the death time "
                    f"({death_bound}), got {self.recovery_time_s}"
                )

    def touches(self, reader_id: str, tag_id: str) -> bool:
        """Whether records of ``(reader_id, tag_id)`` can be affected."""
        return tag_id == self.tag_id

    def compile(self, rng: np.random.Generator) -> "_CompiledTagDeath":
        if self.death_time_s is not None:
            death = float(self.death_time_s)
        else:
            lo, hi = self.death_window_s
            death = float(rng.uniform(lo, hi))
        return _CompiledTagDeath(self, death)


class _CompiledTagDeath:
    def __init__(self, model: TagDeathFault, death_time_s: float):
        self.model = model
        self.death_time_s = death_time_s
        self._announced = False
        self._recovered = False

    def apply(self, record, now_s, emit):
        m = self.model
        if record.tag_id != m.tag_id:
            return (now_s, record)
        if m.recovery_time_s is not None and now_s >= m.recovery_time_s:
            # Battery swapped: full power again, no sag.
            if not self._recovered:
                self._recovered = True
                emit(
                    "tag_recovery",
                    tag=m.tag_id,
                    recovery_t=float(m.recovery_time_s),
                )
            return (now_s, record)
        if now_s >= self.death_time_s:
            if not self._announced:
                self._announced = True
                emit("tag_death", tag=m.tag_id, death_t=self.death_time_s)
            return None
        decay_start = self.death_time_s - m.decay_duration_s
        if m.decay_db_per_s > 0.0 and now_s > decay_start:
            sag = m.decay_db_per_s * (now_s - decay_start)
            record = ReadingRecord(
                reader_id=record.reader_id,
                tag_id=record.tag_id,
                time_s=record.time_s,
                rssi_dbm=record.rssi_dbm - sag,
            )
        return (now_s, record)


# ---------------------------------------------------------------------------
# Per-reader RSSI calibration drift
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationDriftFault:
    """A reader's RSSI calibration drifts linearly over time.

    Models thermal drift / aging of the receiver front-end: from
    ``start_s`` on, every record of ``reader_id`` gains
    ``drift_db_per_s * elapsed`` dB of systematic bias (clamped at
    ``max_drift_db``) plus optional Gaussian calibration jitter.

    ``reset_at_s`` models a *step recalibration* — an operator zeroes
    the reader's bias at that instant (the accumulated drift vanishes in
    one step), after which the same aging process resumes from zero.
    The discontinuity is what makes a corrector's re-convergence after
    an ops recalibration testable (:mod:`repro.calibration`).
    """

    reader_id: str
    drift_db_per_s: float
    start_s: float = 0.0
    max_drift_db: float | None = None
    jitter_db: float = 0.0
    reset_at_s: float | None = None

    def __post_init__(self) -> None:
        if not self.reader_id:
            raise ConfigurationError("reader_id must be non-empty")
        if not math.isfinite(self.drift_db_per_s):
            raise ConfigurationError(
                f"drift_db_per_s must be finite, got {self.drift_db_per_s}"
            )
        _ensure_time(self.start_s, "start_s")
        if self.max_drift_db is not None and self.max_drift_db < 0:
            raise ConfigurationError(
                f"max_drift_db must be >= 0, got {self.max_drift_db}"
            )
        if self.jitter_db < 0:
            raise ConfigurationError(
                f"jitter_db must be >= 0, got {self.jitter_db}"
            )
        if self.reset_at_s is not None:
            _ensure_time(self.reset_at_s, "reset_at_s")
            if self.reset_at_s <= self.start_s:
                raise ConfigurationError(
                    f"reset_at_s must be > start_s ({self.start_s}), "
                    f"got {self.reset_at_s}"
                )

    def bias_at(self, now_s: float) -> float:
        """Deterministic bias component at ``now_s``.

        A ``reset_at_s`` recalibration moves the drift origin: at and
        after the reset the accumulated bias is zeroed and aging
        restarts from the reset instant.
        """
        origin = self.start_s
        if self.reset_at_s is not None and now_s >= self.reset_at_s:
            origin = self.reset_at_s
        if now_s <= origin:
            return 0.0
        bias = self.drift_db_per_s * (now_s - origin)
        if self.max_drift_db is not None:
            bias = max(-self.max_drift_db, min(self.max_drift_db, bias))
        return bias

    def touches(self, reader_id: str, tag_id: str) -> bool:
        """Whether records of ``(reader_id, tag_id)`` can be affected."""
        return reader_id == self.reader_id

    def compile(self, rng: np.random.Generator) -> "_CompiledDrift":
        return _CompiledDrift(self, rng)


class _CompiledDrift:
    def __init__(self, model: CalibrationDriftFault, rng: np.random.Generator):
        self.model = model
        self._rng = rng
        self._reset_announced = False

    def apply(self, record, now_s, emit):
        m = self.model
        if record.reader_id != m.reader_id:
            return (now_s, record)
        if (
            m.reset_at_s is not None
            and now_s >= m.reset_at_s
            and not self._reset_announced
        ):
            self._reset_announced = True
            emit(
                "calibration_reset",
                reader=m.reader_id,
                reset_t=float(m.reset_at_s),
            )
        delta = m.bias_at(now_s)
        if m.jitter_db > 0.0:
            delta += float(self._rng.normal(0.0, m.jitter_db))
        if delta == 0.0:
            return (now_s, record)
        return (
            now_s,
            ReadingRecord(
                reader_id=record.reader_id,
                tag_id=record.tag_id,
                time_s=record.time_s,
                rssi_dbm=record.rssi_dbm + delta,
            ),
        )


# ---------------------------------------------------------------------------
# Delayed / reordered record delivery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DelayFault:
    """Middleware-path latency: records arrive late and possibly reordered.

    Each matching record is held back ``delay_s`` plus a uniform random
    extra of up to ``jitter_s``; when the jitter exceeds the inter-record
    spacing, delivery order genuinely inverts — exactly the reordering a
    congested collection network produces. The record's *measurement*
    timestamp is untouched, so middleware freshness accounting sees the
    data as old as it truly is.

    Parameters
    ----------
    reader_id:
        Restrict to one reader; ``None`` delays everything.
    delay_s / jitter_s:
        Base delay and uniform jitter bound (seconds).
    """

    reader_id: str | None = None
    delay_s: float = 1.0
    jitter_s: float = 0.0

    def __post_init__(self) -> None:
        _ensure_time(self.delay_s, "delay_s")
        _ensure_time(self.jitter_s, "jitter_s")
        if self.delay_s == 0.0 and self.jitter_s == 0.0:
            raise ConfigurationError("DelayFault with zero delay is a no-op")

    def touches(self, reader_id: str, tag_id: str) -> bool:
        """Whether records of ``(reader_id, tag_id)`` can be affected."""
        return self.reader_id is None or reader_id == self.reader_id

    def compile(self, rng: np.random.Generator) -> "_CompiledDelay":
        return _CompiledDelay(self, rng)


class _CompiledDelay:
    def __init__(self, model: DelayFault, rng: np.random.Generator):
        self.model = model
        self._uniform = _Uniforms(rng)

    def apply(self, record, now_s, emit):
        m = self.model
        if m.reader_id is not None and record.reader_id != m.reader_id:
            return (now_s, record)
        delay = m.delay_s
        if m.jitter_s > 0.0:
            # rng.uniform(0, j) is 0 + j * rng.random(), bit for bit.
            delay += m.jitter_s * self._uniform()
        return (now_s + delay, record)


# ---------------------------------------------------------------------------
# Zone-scoped control-plane faults (consumed by the zone gateway)
# ---------------------------------------------------------------------------

#: ``scope`` value marking a fault as *control-plane*: it disturbs the
#: gateway→worker call path of one zone, never the record stream. The
#: record-path machinery (:class:`~repro.faults.injector.FaultInjector`,
#: :func:`~repro.zones.spec.slice_fault_plan`) must never apply these.
ZONE_SCOPE = "zone"


def is_zone_fault(fault: object) -> bool:
    """True when ``fault`` is a zone-scoped control-plane fault."""
    return getattr(fault, "scope", "record") == ZONE_SCOPE


def _ensure_zone(zone_id: str) -> None:
    if not zone_id:
        raise ConfigurationError("zone_id must be non-empty")


@dataclass(frozen=True)
class ZoneCrashFault:
    """One zone worker dies (the kill −9 of the scale-out layer).

    The first gateway→worker call at relative time τ ≥ ``at_s`` finds
    the worker dead: its process is gone, mid-write WAL state and all.
    The gateway respawns the zone from its checkpoint and replays the
    gap deterministically; once the zone's respawn budget is spent it
    stays down and the gateway serves interim (``zone_down``) answers.

    ``at_s`` is on the gateway's relative clock (τ = 0 at the first
    post-warm-up chunk), matching :class:`~repro.zones.spec.RoamingTag`
    route times.
    """

    zone_id: str
    at_s: float

    scope = ZONE_SCOPE

    def __post_init__(self) -> None:
        _ensure_zone(self.zone_id)
        _ensure_time(self.at_s, "at_s")


@dataclass(frozen=True)
class WorkerHangFault:
    """One zone worker wedges: calls block past every deadline.

    From τ ≥ ``at_s`` each gateway→worker call to that *worker
    instance* exceeds its deadline. The gateway charges the retry
    budget and then treats the instance as dead — a hung process cannot
    be un-hung, only killed and respawned. The respawned instance is
    healthy (the hang is instance-level, like a wedged event loop),
    which is what distinguishes this model from
    :class:`ZoneLinkLossFault`.
    """

    zone_id: str
    at_s: float

    scope = ZONE_SCOPE

    def __post_init__(self) -> None:
        _ensure_zone(self.zone_id)
        _ensure_time(self.at_s, "at_s")


@dataclass(frozen=True)
class _ZoneWindowFault:
    """A zone fault active during ``[start_s, start_s + duration_s)``."""

    zone_id: str
    start_s: float
    duration_s: float

    scope = ZONE_SCOPE

    def __post_init__(self) -> None:
        _ensure_zone(self.zone_id)
        _ensure_time(self.start_s, "start_s")
        if not float(self.duration_s) > 0:
            raise ConfigurationError(
                f"duration_s must be > 0, got {self.duration_s}"
            )

    def active_at(self, tau_s: float) -> bool:
        """Is the window open at gateway-relative time ``tau_s``?"""
        return self.start_s <= tau_s < self.start_s + self.duration_s


@dataclass(frozen=True)
class ZoneLinkLossFault(_ZoneWindowFault):
    """The gateway↔worker link drops for a scheduled window.

    Calls during ``[start_s, start_s + duration_s)`` (relative clock)
    fail transiently — the worker is alive but unreachable, so retries
    inside the window keep failing. The gateway lets the zone fall
    behind (skew) and catches it up deterministically once the link
    returns: chunks are pulled in order from the zone's own stream, so
    late processing changes *when* answers appear, never what they are.
    """


@dataclass(frozen=True)
class SlowZoneFault(_ZoneWindowFault):
    """One zone runs slow for a window: calls succeed but lag.

    During ``[start_s, start_s + duration_s)`` the gateway counts the
    zone's ticks as slow and routes no roaming-tag handoff to it
    (cross-zone load shedding), but never fails its calls: slow is
    degraded capacity, not an outage.
    """
