"""Tests for the fault-injection subsystem (``repro.faults``).

Four layers of claims:

1. **Models** — each fault model transforms single records exactly as
   documented (windows, duty cycles, decay ramps, clamped drift, delay
   jitter), validates its parameters, and emits the right transitions.
2. **Plans** — plans are immutable, compile to fresh per-fault state,
   derive per-fault RNG streams that do not interfere, and the named
   chaos presets exist.
3. **Injector** — accounting (seen/dropped/modified/delayed), the
   delayed-record heap, the empty-plan fast path, metrics mirroring, and
   a beacon's block route equal to the per-record oracle kept here.
4. **Determinism** — same plan + seed replayed over the same records
   yields identical outputs and an identical fault-event trail; an empty
   plan run through a full service session is bit-identical to no plan
   at all; a chaotic session replays exactly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.faults import (
    BurstLossFault,
    CalibrationDriftFault,
    DelayFault,
    FaultInjector,
    FaultPlan,
    ReaderOutageFault,
    TagDeathFault,
    chaos_preset,
)
from repro.faults.models import _Uniforms
from repro.hardware.readers import ReadingRecord


def rec(
    reader: str = "reader-0",
    tag: str = "tag-a",
    t: float = 0.0,
    rssi: float = -50.0,
) -> ReadingRecord:
    return ReadingRecord(reader_id=reader, tag_id=tag, time_s=t, rssi_dbm=rssi)


class EmitLog:
    """Collects (kind, fields) pairs emitted by compiled faults."""

    def __init__(self):
        self.events: list[tuple[str, dict]] = []

    def __call__(self, kind: str, **fields) -> None:
        self.events.append((kind, fields))

    def kinds(self) -> list[str]:
        return [k for k, _ in self.events]


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Fault models
# ---------------------------------------------------------------------------


class TestReaderOutageFault:
    def test_down_at_window_semantics(self):
        fault = ReaderOutageFault("reader-0", start_s=10.0, duration_s=5.0)
        assert not fault.down_at(9.999)
        assert fault.down_at(10.0)  # closed at the left
        assert fault.down_at(14.999)
        assert not fault.down_at(15.0)  # open at the right

    def test_permanent_outage(self):
        fault = ReaderOutageFault("reader-0", start_s=1.0, duration_s=math.inf)
        assert fault.down_at(1e9)

    def test_flapping_duty_cycle(self):
        fault = ReaderOutageFault(
            "reader-0", start_s=0.0, duration_s=100.0,
            flapping_period_s=10.0, flap_duty=0.3,
        )
        # First 30% of each period down, rest up.
        assert fault.down_at(0.0)
        assert fault.down_at(2.9)
        assert not fault.down_at(3.0)
        assert not fault.down_at(9.9)
        assert fault.down_at(12.0)  # second period

    def test_apply_drops_in_window_and_emits_edges(self):
        emit = EmitLog()
        fault = ReaderOutageFault("reader-0", start_s=5.0, duration_s=10.0)
        compiled = fault.compile(rng())
        assert compiled.apply(rec(t=1.0), 1.0, emit) == (1.0, rec(t=1.0))
        assert compiled.apply(rec(t=6.0), 6.0, emit) is None
        assert compiled.apply(rec(t=7.0), 7.0, emit) is None  # no duplicate event
        out = compiled.apply(rec(t=20.0), 20.0, emit)
        assert out is not None and out[0] == 20.0
        assert emit.kinds() == ["reader_outage_start", "reader_outage_end"]

    def test_other_readers_unaffected(self):
        emit = EmitLog()
        compiled = ReaderOutageFault(
            "reader-0", start_s=0.0, duration_s=math.inf
        ).compile(rng())
        record = rec(reader="reader-1", t=1.0)
        assert compiled.apply(record, 1.0, emit) == (1.0, record)
        assert emit.events == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(reader_id="", start_s=0.0, duration_s=1.0),
            dict(reader_id="r", start_s=-1.0, duration_s=1.0),
            dict(reader_id="r", start_s=0.0, duration_s=0.0),
            dict(reader_id="r", start_s=0.0, duration_s=1.0,
                 flapping_period_s=0.0),
            dict(reader_id="r", start_s=0.0, duration_s=1.0, flap_duty=1.5),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ReaderOutageFault(**kwargs)


class TestBurstLossFault:
    def test_forced_bad_state_drops_everything(self):
        emit = EmitLog()
        compiled = BurstLossFault(
            p_enter_bad=1.0, p_exit_bad=0.0, loss_bad=1.0
        ).compile(rng())
        for t in (0.0, 1.0, 2.0):
            assert compiled.apply(rec(t=t), t, emit) is None
        assert emit.kinds() == ["burst_state_bad"]  # one transition only

    def test_good_state_without_loss_passes(self):
        emit = EmitLog()
        compiled = BurstLossFault(
            p_enter_bad=0.0, p_exit_bad=1.0, loss_good=0.0
        ).compile(rng())
        record = rec()
        assert compiled.apply(record, 0.0, emit) == (0.0, record)
        assert emit.events == []

    def test_recovers_via_exit_probability(self):
        emit = EmitLog()
        compiled = BurstLossFault(
            p_enter_bad=1.0, p_exit_bad=1.0, loss_bad=1.0, loss_good=0.0
        ).compile(rng())
        compiled.apply(rec(t=0.0), 0.0, emit)  # good -> bad, dropped
        out = compiled.apply(rec(t=1.0), 1.0, emit)  # bad -> good, passes
        assert out is not None
        assert emit.kinds() == ["burst_state_bad", "burst_state_good"]

    def test_window_and_reader_filters_bypass_chain(self):
        emit = EmitLog()
        fault = BurstLossFault(
            reader_id="reader-0", p_enter_bad=1.0, loss_bad=1.0,
            start_s=10.0, duration_s=5.0,
        )
        compiled = fault.compile(rng())
        other = rec(reader="reader-9", t=12.0)
        assert compiled.apply(other, 12.0, emit) == (12.0, other)
        early = rec(t=1.0)
        assert compiled.apply(early, 1.0, emit) == (1.0, early)
        assert compiled.apply(rec(t=12.0), 12.0, emit) is None  # in window
        assert emit.kinds() == ["burst_state_bad"]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BurstLossFault(p_enter_bad=1.5)
        with pytest.raises(ConfigurationError):
            BurstLossFault(duration_s=0.0)


class TestTagDeathFault:
    def test_exact_death_time(self):
        emit = EmitLog()
        compiled = TagDeathFault("ref-3", death_time_s=10.0).compile(rng())
        alive = rec(tag="ref-3", t=9.0)
        assert compiled.apply(alive, 9.0, emit) == (9.0, alive)
        assert compiled.apply(rec(tag="ref-3", t=10.0), 10.0, emit) is None
        assert compiled.apply(rec(tag="ref-3", t=11.0), 11.0, emit) is None
        assert emit.events == [
            ("tag_death", {"tag": "ref-3", "death_t": 10.0})
        ]

    def test_decay_ramp_sags_rssi(self):
        compiled = TagDeathFault(
            "tag-a", death_time_s=10.0, decay_db_per_s=2.0,
            decay_duration_s=4.0,
        ).compile(rng())
        emit = EmitLog()
        # Before the ramp: untouched (same object).
        early = rec(t=5.0)
        assert compiled.apply(early, 5.0, emit)[1] is early
        # Inside the ramp: sag = 2 dB/s * (8 - 6) s = 4 dB.
        release, sagged = compiled.apply(rec(t=8.0, rssi=-50.0), 8.0, emit)
        assert release == 8.0
        assert sagged.rssi_dbm == pytest.approx(-54.0)
        assert sagged.time_s == 8.0  # measurement timestamp preserved

    def test_random_death_drawn_from_window_reproducibly(self):
        fault = TagDeathFault("tag-a", death_window_s=(3.0, 7.0))
        a = fault.compile(rng(42))
        b = fault.compile(rng(42))
        assert 3.0 <= a.death_time_s <= 7.0
        assert a.death_time_s == b.death_time_s
        assert fault.compile(rng(43)).death_time_s != a.death_time_s

    def test_other_tags_unaffected(self):
        compiled = TagDeathFault("ref-3", death_time_s=0.0).compile(rng())
        record = rec(tag="tag-b", t=5.0)
        assert compiled.apply(record, 5.0, EmitLog()) == (5.0, record)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TagDeathFault("")
        with pytest.raises(ConfigurationError):
            TagDeathFault("t", death_window_s=(5.0, 2.0))
        with pytest.raises(ConfigurationError):
            TagDeathFault("t", decay_db_per_s=-1.0)

    def test_recovery_restores_full_power_and_emits_once(self):
        compiled = TagDeathFault(
            "ref-3", death_time_s=10.0, decay_db_per_s=2.0,
            decay_duration_s=4.0, recovery_time_s=20.0,
        ).compile(rng())
        emit = EmitLog()
        assert compiled.apply(rec(tag="ref-3", t=12.0), 12.0, emit) is None
        # Battery swap: records pass again at full power (no sag).
        revived = rec(tag="ref-3", t=20.0, rssi=-50.0)
        release, out = compiled.apply(revived, 20.0, emit)
        assert release == 20.0 and out is revived
        later = rec(tag="ref-3", t=25.0, rssi=-48.0)
        assert compiled.apply(later, 25.0, emit) == (25.0, later)
        kinds = [k for k, _ in emit.events]
        assert kinds == ["tag_death", "tag_recovery"]
        assert emit.events[1][1] == {"tag": "ref-3", "recovery_t": 20.0}

    def test_recovery_must_follow_death(self):
        with pytest.raises(ConfigurationError):
            TagDeathFault("t", death_time_s=10.0, recovery_time_s=10.0)
        with pytest.raises(ConfigurationError):
            # Random draw: recovery must clear the whole window.
            TagDeathFault(
                "t", death_window_s=(5.0, 15.0), recovery_time_s=12.0
            )
        # Clearing the window is fine.
        TagDeathFault("t", death_window_s=(5.0, 15.0), recovery_time_s=16.0)


class TestCalibrationDriftFault:
    def test_bias_ramp_and_clamp(self):
        fault = CalibrationDriftFault(
            "reader-1", drift_db_per_s=0.5, start_s=10.0, max_drift_db=3.0
        )
        assert fault.bias_at(5.0) == 0.0
        assert fault.bias_at(10.0) == 0.0
        assert fault.bias_at(14.0) == pytest.approx(2.0)
        assert fault.bias_at(100.0) == 3.0  # clamped

    def test_negative_drift_clamps_symmetrically(self):
        fault = CalibrationDriftFault(
            "reader-1", drift_db_per_s=-1.0, max_drift_db=2.5
        )
        assert fault.bias_at(100.0) == -2.5

    def test_apply_adds_bias(self):
        compiled = CalibrationDriftFault(
            "reader-1", drift_db_per_s=0.25, start_s=0.0
        ).compile(rng())
        _, out = compiled.apply(
            rec(reader="reader-1", t=8.0, rssi=-60.0), 8.0, EmitLog()
        )
        assert out.rssi_dbm == pytest.approx(-58.0)

    def test_reset_steps_bias_to_zero_then_drift_resumes(self):
        fault = CalibrationDriftFault(
            "reader-1", drift_db_per_s=0.5, start_s=10.0,
            max_drift_db=20.0, reset_at_s=30.0,
        )
        assert fault.bias_at(29.9) == pytest.approx(9.95)
        assert fault.bias_at(30.0) == 0.0  # ops recalibration: one step
        assert fault.bias_at(34.0) == pytest.approx(2.0)  # aging resumes
        assert fault.bias_at(1000.0) == 20.0  # clamp still applies

    def test_reset_emits_calibration_reset_once(self):
        compiled = CalibrationDriftFault(
            "reader-1", drift_db_per_s=0.5, start_s=0.0, reset_at_s=10.0
        ).compile(rng())
        emit = EmitLog()
        compiled.apply(rec(reader="reader-1", t=5.0), 5.0, emit)
        compiled.apply(rec(reader="reader-1", t=10.0), 10.0, emit)
        compiled.apply(rec(reader="reader-1", t=11.0), 11.0, emit)
        assert emit.events == [
            ("calibration_reset", {"reader": "reader-1", "reset_t": 10.0})
        ]

    def test_reset_must_follow_start(self):
        with pytest.raises(ConfigurationError):
            CalibrationDriftFault(
                "reader-1", drift_db_per_s=0.5, start_s=10.0, reset_at_s=10.0
            )
        with pytest.raises(ConfigurationError):
            CalibrationDriftFault(
                "reader-1", drift_db_per_s=0.5, start_s=10.0, reset_at_s=-1.0
            )

    def test_zero_bias_passes_same_object(self):
        compiled = CalibrationDriftFault(
            "reader-1", drift_db_per_s=0.5, start_s=100.0
        ).compile(rng())
        record = rec(reader="reader-1", t=1.0)
        assert compiled.apply(record, 1.0, EmitLog())[1] is record

    def test_jitter_is_seed_deterministic(self):
        fault = CalibrationDriftFault(
            "reader-1", drift_db_per_s=0.0, jitter_db=1.0
        )
        a = fault.compile(rng(7)).apply(rec(reader="reader-1"), 5.0, EmitLog())
        b = fault.compile(rng(7)).apply(rec(reader="reader-1"), 5.0, EmitLog())
        assert a[1].rssi_dbm == b[1].rssi_dbm
        assert a[1].rssi_dbm != -50.0  # jitter actually applied

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CalibrationDriftFault("", drift_db_per_s=0.1)
        with pytest.raises(ConfigurationError):
            CalibrationDriftFault("r", drift_db_per_s=math.inf)
        with pytest.raises(ConfigurationError):
            CalibrationDriftFault("r", drift_db_per_s=0.1, max_drift_db=-1.0)
        with pytest.raises(ConfigurationError):
            CalibrationDriftFault("r", drift_db_per_s=0.1, jitter_db=-0.5)


class TestDelayFault:
    def test_zero_delay_rejected(self):
        with pytest.raises(ConfigurationError, match="no-op"):
            DelayFault(delay_s=0.0, jitter_s=0.0)

    def test_base_delay_shifts_release_not_record(self):
        compiled = DelayFault(delay_s=1.5).compile(rng())
        record = rec(t=4.0)
        release, out = compiled.apply(record, 4.0, EmitLog())
        assert release == pytest.approx(5.5)
        assert out is record  # measurement timestamp untouched

    def test_jitter_bounded_and_deterministic(self):
        fault = DelayFault(delay_s=1.0, jitter_s=2.0)
        releases = [
            fault.compile(rng(3)).apply(rec(t=0.0), 0.0, EmitLog())[0]
            for _ in range(2)
        ]
        assert releases[0] == releases[1]
        assert 1.0 <= releases[0] <= 3.0

    def test_reader_filter(self):
        compiled = DelayFault(reader_id="reader-0", delay_s=9.0).compile(rng())
        record = rec(reader="reader-1", t=2.0)
        assert compiled.apply(record, 2.0, EmitLog()) == (2.0, record)


# ---------------------------------------------------------------------------
# Plans and presets
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_rejects_non_models(self):
        with pytest.raises(ConfigurationError, match="not a fault model"):
            FaultPlan(["not-a-fault"])  # type: ignore[list-item]

    def test_immutable_composition(self):
        base = FaultPlan(seed=5)
        assert base.empty and len(base) == 0
        extended = base.with_fault(
            ReaderOutageFault("reader-0", start_s=0.0, duration_s=1.0)
        )
        assert base.empty  # original untouched
        assert len(extended) == 1 and not extended.empty
        assert extended.seed == 5
        assert [type(f).__name__ for f in extended] == ["ReaderOutageFault"]

    def test_compile_returns_fresh_state(self):
        plan = FaultPlan(
            [BurstLossFault(p_enter_bad=1.0, loss_bad=1.0)], seed=0
        )
        first, second = plan.compile()[0], plan.compile()[0]
        first.apply(rec(t=0.0), 0.0, EmitLog())  # flips `first` to bad
        emit = EmitLog()
        second.apply(rec(t=0.0), 0.0, emit)
        assert emit.kinds() == ["burst_state_bad"]  # fresh chain, own flip

    def test_per_fault_streams_do_not_interfere(self):
        # Same TagDeathFault at the same index; the *other* fault's
        # parameters change. The drawn death time must not move.
        death = TagDeathFault("tag-a", death_window_s=(10.0, 50.0))
        plan_a = FaultPlan([BurstLossFault(p_enter_bad=0.1), death], seed=11)
        plan_b = FaultPlan([BurstLossFault(p_enter_bad=0.9), death], seed=11)
        assert plan_a.compile()[1].death_time_s == plan_b.compile()[1].death_time_s

    def test_describe_one_line_per_fault(self):
        plan = chaos_preset("moderate")
        lines = plan.describe()
        assert len(lines) == len(plan)
        assert any("ReaderOutageFault" in line for line in lines)


class TestChaosPresets:
    @pytest.mark.parametrize(
        "name", ["none", "light", "moderate", "severe", "drift"]
    )
    def test_presets_compile(self, name: str):
        plan = chaos_preset(name, seed=1)
        compiled = plan.compile()
        assert len(compiled) == len(plan)
        assert plan.empty == (name == "none")

    def test_intensity_ordering(self):
        sizes = [
            len(chaos_preset(n))
            for n in ("none", "light", "moderate", "severe")
        ]
        assert sizes == sorted(sizes) and sizes[0] == 0

    def test_drift_preset_shape(self):
        # The calibration-stress level: wrong values, never missing
        # ones — drift plus one decaying-but-recovering reference tag,
        # no outages and no record loss.
        plan = chaos_preset("drift", seed=1)
        drifts = [f for f in plan if isinstance(f, CalibrationDriftFault)]
        deaths = [f for f in plan if isinstance(f, TagDeathFault)]
        assert len(drifts) + len(deaths) == len(plan)
        assert len(drifts) >= 3
        assert len({f.start_s for f in drifts}) == len(drifts)  # staggered
        assert any(f.reset_at_s is not None for f in drifts)
        [death] = deaths
        assert death.decay_db_per_s > 0 and death.recovery_time_s is not None

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown chaos preset"):
            chaos_preset("apocalyptic")


# ---------------------------------------------------------------------------
# The injector
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_empty_plan_fast_path(self):
        injector = FaultInjector(FaultPlan())
        records = [rec(t=float(i)) for i in range(5)]
        for i, record in enumerate(records):
            out = injector.process([record], float(i))
            assert out == [record] and out[0] is record  # same object
        assert injector.counters() == {
            "seen": 5, "dropped": 0, "modified": 0, "delayed": 0,
            "pending_delayed": 0, "transitions": 0,
        }
        assert injector.events == []

    def test_drop_accounting(self):
        plan = FaultPlan(
            [ReaderOutageFault("reader-0", start_s=2.0, duration_s=math.inf)]
        )
        injector = FaultInjector(plan)
        assert injector.process([rec(t=0.0)], 0.0) == [rec(t=0.0)]
        assert injector.process([rec(t=3.0)], 3.0) == []
        assert injector.process([rec(reader="reader-1", t=4.0)], 4.0) != []
        c = injector.counters()
        assert (c["seen"], c["dropped"]) == (3, 1)
        assert [e.kind for e in injector.events] == ["reader_outage_start"]

    def test_modified_accounting(self):
        plan = FaultPlan(
            [CalibrationDriftFault("reader-0", drift_db_per_s=1.0)]
        )
        injector = FaultInjector(plan)
        [out] = injector.process([rec(t=5.0, rssi=-50.0)], 5.0)
        assert out.rssi_dbm == pytest.approx(-45.0)
        assert injector.counters()["modified"] == 1

    def test_delay_buffering_release_and_flush(self):
        injector = FaultInjector(FaultPlan([DelayFault(delay_s=2.0)]))
        first, second = rec(tag="a", t=0.0), rec(tag="b", t=1.0)
        assert injector.process([first], 0.0) == []
        assert injector.process([second], 1.0) == []
        assert injector.pending_delayed == 2
        assert injector.release_due(1.9) == []
        assert injector.release_due(2.0) == [first]  # oldest first
        assert injector.pending_delayed == 1
        assert injector.flush() == [second]
        assert injector.pending_delayed == 0
        assert injector.counters()["delayed"] == 2

    def test_delayed_records_ride_along_with_later_process_calls(self):
        injector = FaultInjector(
            FaultPlan([DelayFault(reader_id="reader-0", delay_s=1.0)])
        )
        delayed = rec(reader="reader-0", t=0.0)
        assert injector.process([delayed], 0.0) == []
        passthrough = rec(reader="reader-1", t=2.0)
        # The due delayed record surfaces before the new passthrough.
        assert injector.process([passthrough], 2.0) == [delayed, passthrough]

    def test_dropped_records_skip_later_faults(self):
        # Outage drops first; the delay fault must never see the record.
        plan = FaultPlan([
            ReaderOutageFault("reader-0", start_s=0.0, duration_s=math.inf),
            DelayFault(delay_s=5.0),
        ])
        injector = FaultInjector(plan)
        assert injector.process([rec(t=1.0)], 1.0) == []
        assert injector.pending_delayed == 0
        assert injector.counters()["dropped"] == 1

    def test_metrics_mirroring(self):
        # The injector keeps no registry; the session that owns one
        # registers reads over the injector's own counters.
        from tests.regen_golden import run_chaos_session

        report = run_chaos_session()
        summary = report.summary
        for key in ("seen", "dropped", "modified", "delayed"):
            metric = report.metrics.get(f"faults_records_{key}_total")
            assert metric.value == summary[f"fault_records_{key}"], key
        transitions = report.metrics.get("faults_transitions_total")
        assert transitions.value == summary["fault_records_transitions"]
        assert summary["fault_records_dropped"] > 0
        assert transitions.value > 0
        rendered = report.render_prometheus()
        assert "faults_records_seen_total " in rendered


def _synthetic_stream() -> list[tuple[float, ReadingRecord]]:
    """A dense deterministic record stream over 4 readers x 6 tags."""
    out = []
    tags = [f"ref-{i}" for i in range(4)] + ["tag-a", "tag-b"]
    t = 0.0
    for step in range(120):
        t = step * 0.5
        for k in range(4):
            for j, tag in enumerate(tags):
                out.append(
                    (t, rec(reader=f"reader-{k}", tag=tag, t=t,
                            rssi=-50.0 - k - j))
                )
    return out


class TestInjectorDeterminism:
    @staticmethod
    def _run(plan: FaultPlan):
        injector = FaultInjector(plan)
        served = []
        for now_s, record in _synthetic_stream():
            for out in injector.process([record], now_s):
                served.append(
                    (out.reader_id, out.tag_id, out.time_s, out.rssi_dbm)
                )
        for out in injector.flush():
            served.append((out.reader_id, out.tag_id, out.time_s, out.rssi_dbm))
        return served, list(injector.events), injector.counters()

    def test_same_seed_replays_identically(self):
        plan = chaos_preset("severe", seed=7)
        served_a, events_a, counters_a = self._run(plan)
        served_b, events_b, counters_b = self._run(plan)
        assert served_a == served_b
        assert events_a == events_b
        assert counters_a == counters_b
        assert counters_a["dropped"] > 0  # chaos actually happened
        assert counters_a["modified"] > 0
        assert counters_a["delayed"] > 0

    def test_different_seed_changes_the_schedule(self):
        _, events_7, _ = self._run(chaos_preset("severe", seed=7))
        _, events_8, _ = self._run(chaos_preset("severe", seed=8))
        assert events_7 != events_8


# ---------------------------------------------------------------------------
# The beacon block against the per-record oracle
# ---------------------------------------------------------------------------


def oracle_process(injector: FaultInjector, record, now_s: float) -> list:
    """The injector's per-record route, before a beacon became one block.

    Kept here and only here: one record per call, a ``release_due`` per
    call, and every record through *every* fault of the plan (no
    routing table), with the multi-item pending list of the old
    list-returning ``apply`` contract.
    """
    injector._now = float(now_s)
    injector.records_seen += 1
    out = injector.release_due(now_s)
    if not injector._faults:
        out.append(record)
        return out
    pending = [(now_s, record)]
    for fault in injector._faults:
        next_pending = []
        for release_s, current in pending:
            result = fault.apply(current, release_s, injector._emit)
            results = [] if result is None else [result]
            if not results:
                injector.records_dropped += 1
            for out_release, out_rec in results:
                if out_rec.rssi_dbm != current.rssi_dbm:
                    injector.records_modified += 1
                next_pending.append((max(out_release, release_s), out_rec))
        pending = next_pending
        if not pending:
            break
    for release_s, current in pending:
        if release_s <= now_s:
            out.append(current)
        else:
            injector.records_delayed += 1
            heapq.heappush(injector._delayed, (release_s, injector._seq, current))
            injector._seq += 1
    return out


@dataclass(frozen=True)
class EveryNthDrop:
    """A fault model without ``touches``: the injector cannot classify it."""

    n: int

    def compile(self, rng):
        del rng
        return _CompiledEveryNth(self)


class _CompiledEveryNth:
    def __init__(self, model: EveryNthDrop):
        self.model = model
        self.seen = 0

    def apply(self, record, now_s, emit):
        self.seen += 1
        if self.seen % self.model.n:
            return (now_s, record)
        emit("nth_drop", reader=record.reader_id, tag=record.tag_id)
        return None


READERS = tuple(f"reader-{k}" for k in range(4))
TAGS = ("ref-0", "ref-1", "tag-a", "tag-b")

_times = st.floats(0.0, 30.0, allow_nan=False)
_spans = st.one_of(st.just(math.inf), st.floats(0.5, 20.0))
_probs = st.floats(0.0, 1.0)
_some_reader = st.one_of(st.none(), st.sampled_from(READERS))

_record_faults = st.one_of(
    st.builds(
        ReaderOutageFault,
        reader_id=st.sampled_from(READERS),
        start_s=_times,
        duration_s=_spans,
        flapping_period_s=st.one_of(st.none(), st.floats(0.3, 5.0)),
        flap_duty=_probs,
    ),
    st.builds(
        BurstLossFault,
        reader_id=_some_reader,
        p_enter_bad=_probs,
        p_exit_bad=_probs,
        loss_bad=_probs,
        loss_good=st.floats(0.0, 0.3),
        start_s=_times,
        duration_s=_spans,
    ),
    st.one_of(
        st.builds(
            TagDeathFault,
            tag_id=st.sampled_from(TAGS),
            death_time_s=st.floats(1.0, 20.0),
            decay_db_per_s=st.floats(0.0, 3.0),
            decay_duration_s=st.floats(0.0, 8.0),
            recovery_time_s=st.one_of(st.none(), st.floats(20.5, 30.0)),
        ),
        st.builds(
            TagDeathFault,
            tag_id=st.sampled_from(TAGS),
            death_window_s=st.just((2.0, 15.0)),
            decay_db_per_s=st.floats(0.0, 3.0),
            decay_duration_s=st.floats(0.0, 8.0),
        ),
    ),
    st.builds(
        CalibrationDriftFault,
        reader_id=st.sampled_from(READERS),
        drift_db_per_s=st.floats(-1.0, 1.0),
        start_s=st.floats(0.0, 10.0),
        max_drift_db=st.one_of(st.none(), st.floats(0.0, 6.0)),
        jitter_db=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        reset_at_s=st.one_of(st.none(), st.floats(10.5, 25.0)),
    ),
    st.builds(
        DelayFault,
        reader_id=_some_reader,
        delay_s=st.floats(0.1, 3.0),
        jitter_s=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    ),
    st.builds(EveryNthDrop, n=st.integers(2, 5)),
)

_beacon = st.tuples(
    st.sampled_from((0.0, 0.0, 0.05, 0.3, 1.0, 2.5)),  # time step
    st.sampled_from(TAGS),
    st.lists(st.sampled_from(READERS), min_size=1, max_size=4, unique=True),
    st.lists(st.floats(-97.0, -40.0), min_size=4, max_size=4),
    st.booleans(),  # a release_due window end before this beacon
)


def _bits(record) -> tuple:
    return (record.reader_id, record.tag_id, record.time_s.hex(), record.rssi_dbm.hex())


def _fault_state(fault) -> dict:
    """A compiled fault's mutable state, RNG positions included."""
    state = {}
    for name, value in vars(fault).items():
        if isinstance(value, np.random.Generator):
            value = value.bit_generator.state
        elif isinstance(value, _Uniforms):
            value = (value.rng.bit_generator.state, list(value.ahead))
        state[name] = value
    return state


class TestBeaconBlockEqualsPerRecordOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        faults=st.lists(_record_faults, min_size=1, max_size=7),
        seed=st.integers(0, 2**32 - 1),
        beacons=st.lists(_beacon, min_size=1, max_size=80),
    )
    def test_same_records_events_counters_and_rng_states(
        self, faults, seed, beacons
    ):
        plan = FaultPlan(faults, seed=seed)
        block, oracle = FaultInjector(plan), FaultInjector(plan)
        now = 0.0
        for step, tag, readers, rssi, window_end in beacons:
            if window_end:
                assert [_bits(r) for r in block.release_due(now)] == [
                    _bits(r) for r in oracle.release_due(now)
                ]
            now += step
            records = [
                rec(reader=reader, tag=tag, t=now, rssi=rssi[READERS.index(reader)])
                for reader in sorted(readers)
            ]
            got = block.process(records, now)
            expected = [
                out for record in records for out in oracle_process(oracle, record, now)
            ]
            assert [_bits(r) for r in got] == [_bits(r) for r in expected]
        assert [(e.time_s, e.kind, dict(e.fields)) for e in block.events] == [
            (e.time_s, e.kind, dict(e.fields)) for e in oracle.events
        ]
        assert block.counters() == oracle.counters()
        assert [_fault_state(f) for f in block._faults] == [
            _fault_state(f) for f in oracle._faults
        ]
        assert [_bits(r) for r in block.flush()] == [_bits(r) for r in oracle.flush()]

    def test_a_fault_meets_only_the_records_it_touches(self):
        outage = ReaderOutageFault("reader-0", start_s=0.0, duration_s=math.inf)
        death = TagDeathFault("ref-1", death_time_s=0.0)
        injector = FaultInjector(FaultPlan([outage, death, EveryNthDrop(n=99)]))
        seen = []
        for fault in injector._faults:
            apply = fault.apply

            def spy(record, now_s, emit, apply=apply, model=fault.model):
                seen.append((type(model).__name__, record.reader_id, record.tag_id))
                return apply(record, now_s, emit)

            fault.apply = spy
        injector.process(
            [rec(reader="reader-1", tag="tag-a", t=1.0),
             rec(reader="reader-0", tag="ref-1", t=1.0)],
            1.0,
        )
        assert seen == [
            ("EveryNthDrop", "reader-1", "tag-a"),  # unclassified: every record
            ("ReaderOutageFault", "reader-0", "ref-1"),  # dropped here
        ]
        assert injector.counters()["dropped"] == 1

    def test_uniform_blocks_match_scalar_draws(self):
        scalar, blocked = rng(5), _Uniforms(rng(5))
        n = 3 * _Uniforms.BLOCK + 7
        assert [blocked() for _ in range(n)] == [scalar.random() for _ in range(n)]
        # uniform(0, j) is j * random(), bit for bit (the delay jitter).
        a, b = rng(9), _Uniforms(rng(9))
        assert [float(a.uniform(0.0, 2.7)) for _ in range(500)] == [
            2.7 * b() for _ in range(500)
        ]


# ---------------------------------------------------------------------------
# End-to-end: chaotic service sessions
# ---------------------------------------------------------------------------

from repro import VIREConfig  # noqa: E402
from repro.hardware.deployment import build_paper_deployment  # noqa: E402
from repro.hardware.middleware import SmoothingSpec  # noqa: E402
from repro.service import LocalizationService, ServiceConfig  # noqa: E402

from .conftest import make_clean_environment  # noqa: E402

TRACKING = {"asset": (1.3, 1.7), "cart": (2.4, 0.9)}

#: Short staleness horizon so injected outages become visible to the
#: middleware (and hence the degradation ladder) within a short session.
MAX_AGE_S = 6.0


class StubScenario:
    name = "chaos-stub"
    tracking_tags = TRACKING


class ChaosService(LocalizationService):
    """Service bound to a deterministic clean-environment deployment."""

    def __init__(self, seed: int, config: ServiceConfig):
        super().__init__(config)
        self._seed = seed

    def build_deployment(self, scenario):  # noqa: ARG002 - fixed world
        return build_paper_deployment(
            make_clean_environment(),
            tracking_tags={f"tag-{l}": p for l, p in TRACKING.items()},
            seed=self._seed,
            smoothing=SmoothingSpec(max_age_s=MAX_AGE_S),
        )


def chaos_config(**changes) -> ServiceConfig:
    base = ServiceConfig(
        query_interval_s=1.0,
        request_deadline_s=None,
        breaker_recovery_timeout_s=8.0,
        vire=VIREConfig(subdivisions=5),
    )
    return base.with_(**changes) if changes else base


def run_session(plan, *, seed: int = 21, duration_s: float = 20.0, **cfg):
    service = ChaosService(seed=seed, config=chaos_config(**cfg))
    return service.run(StubScenario(), duration_s, fault_plan=plan)


class TestChaosSessions:
    def test_empty_plan_is_bit_identical_to_no_plan(self):
        baseline = run_session(None, duration_s=4.0)
        empty = run_session(FaultPlan(), duration_s=4.0)
        assert len(baseline.results) == len(empty.results) > 0
        for a, b in zip(baseline.results, empty.results):
            assert a.position == b.position  # bitwise, not approx
            assert (a.tag_id, a.degraded, a.reason) == (
                b.tag_id, b.degraded, b.reason
            )
        # The injector was live (counters present) yet touched nothing.
        assert empty.summary["fault_records_seen"] > 0
        assert empty.summary["fault_records_dropped"] == 0

    def test_single_reader_outage_takes_the_subset_path(self):
        plan = FaultPlan(
            [ReaderOutageFault("reader-0", start_s=0.0, duration_s=math.inf)],
            seed=0,
        )
        report = run_session(plan)
        summary = report.summary
        assert summary["fault_records_dropped"] > 0
        # Every request was still answered...
        assert summary["availability"] == 1.0
        # ...and the VIRE-on-surviving-subset rung actually fired once
        # the dead reader's series crossed the staleness horizon.
        reasons = {r.reason for r in report.results}
        assert "partial_readers" in reasons
        # The breaker noticed the dead reader.
        assert summary["breaker_transitions"] >= 1

    def test_chaotic_session_replays_exactly(self):
        plan = FaultPlan(
            [
                ReaderOutageFault(
                    "reader-0", start_s=0.0, duration_s=math.inf
                ),
                BurstLossFault(
                    reader_id="reader-2", p_enter_bad=0.2, loss_bad=0.7
                ),
            ],
            seed=13,
        )
        first = run_session(plan, duration_s=16.0)
        second = run_session(plan, duration_s=16.0)
        assert [r.position for r in first.results] == [
            r.position for r in second.results
        ]
        assert [r.reason for r in first.results] == [
            r.reason for r in second.results
        ]
        for key in ("fault_records_seen", "fault_records_dropped",
                    "fault_records_transitions", "results", "degraded"):
            assert first.summary[key] == second.summary[key], key

    def test_strict_mode_never_masks(self):
        plan = FaultPlan(
            [ReaderOutageFault("reader-0", start_s=0.0, duration_s=math.inf)],
            seed=0,
        )
        report = run_session(plan, allow_partial=False)
        reasons = {r.reason for r in report.results}
        assert "partial_readers" not in reasons
        assert "quorum_unmet" not in reasons
        # The outage still bites: requests fall back to stale answers.
        assert "no_reading" in reasons
