"""Tests for the discrete-event engine and tag/reader primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.hardware.events import EventQueue, SimClock
from repro.hardware.readers import Reader
from repro.hardware.simulator import TestbedSimulator as Simulator
from repro.hardware.tags import (
    NEW_EQUIPMENT,
    ORIGINAL_EQUIPMENT,
    ActiveTag,
    TagSpec,
)

from .conftest import fading_free_channel, make_clean_environment


class TestSimClock:
    def test_advances(self):
        clock = SimClock()
        clock.advance_to(5.0)
        assert clock.now == 5.0

    def test_rejects_backwards(self):
        clock = SimClock(now=10.0)
        with pytest.raises(SimulationError):
            clock.advance_to(9.0)


class TestEventQueue:
    def test_dispatch_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(2.0, lambda: fired.append("b"))
        q.schedule(1.0, lambda: fired.append("a"))
        q.schedule(3.0, lambda: fired.append("c"))
        assert q.run_until(10.0) == 3
        assert fired == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        q = EventQueue()
        fired = []
        for label in "abc":
            q.schedule(1.0, lambda lab=label: fired.append(lab))
        q.run_until(1.0)
        assert fired == ["a", "b", "c"]

    def test_run_until_partial(self):
        q = EventQueue()
        fired = []
        q.schedule(1.0, lambda: fired.append(1))
        q.schedule(5.0, lambda: fired.append(5))
        assert q.run_until(2.0) == 1
        assert fired == [1]
        assert q.clock.now == 2.0
        assert len(q) == 1

    def test_schedule_in_relative(self):
        q = EventQueue()
        q.run_until(3.0)
        fired = []
        q.schedule_in(2.0, lambda: fired.append(q.clock.now))
        q.run_until(10.0)
        assert fired == [5.0]

    def test_self_rescheduling(self):
        q = EventQueue()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 5:
                q.schedule_in(1.0, tick)

        q.schedule(0.0, tick)
        q.run_until(100.0)
        assert count[0] == 5

    def test_cannot_schedule_in_past(self):
        q = EventQueue()
        q.run_until(5.0)
        with pytest.raises(SimulationError):
            q.schedule(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().schedule_in(-1.0, lambda: None)

    def test_max_events_guard(self):
        q = EventQueue()

        def forever():
            q.schedule_in(0.001, forever)

        q.schedule(0.0, forever)
        with pytest.raises(SimulationError, match="max_events"):
            q.run_until(10.0, max_events=50)

    def test_events_at_exact_boundary_included(self):
        q = EventQueue()
        fired = []
        q.schedule(2.0, lambda: fired.append(True))
        q.run_until(2.0)
        assert fired == [True]


class TestTagSpec:
    def test_presets(self):
        assert NEW_EQUIPMENT.beacon_interval_s == 2.0
        assert ORIGINAL_EQUIPMENT.beacon_interval_s == 7.5

    def test_jitter_must_be_smaller_than_interval(self):
        with pytest.raises(ConfigurationError):
            TagSpec(beacon_interval_s=1.0, beacon_jitter_s=1.5)

    def test_battery_validation(self):
        with pytest.raises(ConfigurationError):
            TagSpec(battery_life_beacons=0)


class TestActiveTag:
    def test_construction(self):
        tag = ActiveTag("t1", (1.0, 2.0), is_reference=True)
        assert tag.position == (1.0, 2.0)
        assert tag.is_reference
        assert tag.alive
        assert tag.offset_db == 0.0

    def test_move_to(self):
        tag = ActiveTag("t1", (0.0, 0.0))
        tag.move_to((2.0, 3.0))
        assert tag.position == (2.0, 3.0)

    def test_move_to_nan_rejected(self):
        tag = ActiveTag("t1", (0.0, 0.0))
        with pytest.raises(ConfigurationError):
            tag.move_to((float("nan"), 0.0))

    def test_empty_id_rejected(self):
        with pytest.raises(ConfigurationError):
            ActiveTag("", (0.0, 0.0))

    def test_battery_death(self):
        tag = ActiveTag("t1", (0.0, 0.0), TagSpec(battery_life_beacons=2))
        assert tag.alive
        tag.record_beacon()
        assert tag.alive
        tag.record_beacon()
        assert not tag.alive

    def test_beacon_delay_within_jitter(self):
        spec = TagSpec(beacon_interval_s=2.0, beacon_jitter_s=0.2)
        tag = ActiveTag("t1", (0.0, 0.0), spec)
        rng = np.random.default_rng(0)
        delays = [tag.next_beacon_delay(rng) for _ in range(200)]
        assert all(1.8 <= d <= 2.2 for d in delays)

    @pytest.mark.parametrize("spec", [NEW_EQUIPMENT, ORIGINAL_EQUIPMENT])
    def test_jitter_equals_numpy_uniform_bit_for_bit(self, spec):
        tag = ActiveTag("t1", (0.0, 0.0), spec)
        j = spec.beacon_jitter_s
        rng, oracle = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(100_000):
            got = tag.next_beacon_delay(rng)
            expected = spec.beacon_interval_s + oracle.uniform(-j, j)
            assert got.hex() == expected.hex()
        assert rng.bit_generator.state == oracle.bit_generator.state

    def test_zero_jitter_deterministic(self):
        spec = TagSpec(beacon_interval_s=2.0, beacon_jitter_s=0.0)
        tag = ActiveTag("t1", (0.0, 0.0), spec)
        assert tag.next_beacon_delay(np.random.default_rng(0)) == 2.0

def _one_reader_world(threshold_dbm: float, *, offset_db: float = 0.0):
    """One tag 2 m from one reader in a noiseless, fading-free world."""
    channel = fading_free_channel(make_clean_environment(), [(0.0, 0.0)], seed=0)
    tag = ActiveTag("t1", (2.0, 0.0), is_reference=True)
    tag.offset_db = offset_db
    reader = Reader("r0", (0.0, 0.0), detection_threshold_dbm=threshold_dbm)
    sim = Simulator(channel, [tag], [reader], seed=0)
    records = []
    sim.set_record_sink(records.append)
    sim.run_for(9.0)
    return reader, records, tag.beacons_sent, float(channel.mean_rssi(0, [(2.0, 0.0)])[0])


class TestReader:
    def test_receives_strong_frame(self):
        reader, records, beacons, mean = _one_reader_world(-200.0)
        assert beacons >= 4
        assert [r.rssi_dbm for r in records] == [mean] * beacons
        assert {r.reader_id for r in records} == {"r0"}
        assert reader.frames_received == beacons
        assert reader.frames_dropped == 0

    def test_threshold_is_inclusive(self):
        mean = _one_reader_world(-200.0)[3]
        reader, records, beacons, _ = _one_reader_world(mean)
        assert len(records) == reader.frames_received == beacons

    def test_drops_weak_frame(self):
        reader, records, beacons, _ = _one_reader_world(0.0)
        assert records == []
        assert reader.frames_received == 0
        assert reader.frames_dropped == beacons >= 4

    def test_drops_nan(self):
        # A NaN attenuation makes every reading NaN: dropped even by a
        # reader that hears everything else.
        reader, records, beacons, _ = _one_reader_world(
            -np.inf, offset_db=float("nan")
        )
        assert records == []
        assert reader.frames_dropped == beacons >= 4

    def test_drops_infinite(self):
        # A boost of +inf dB reads +inf: not a frame any reader reports.
        reader, records, beacons, _ = _one_reader_world(
            -np.inf, offset_db=float("inf")
        )
        assert records == []
        assert reader.frames_dropped == beacons >= 4

    def test_nan_threshold_rejected(self):
        with pytest.raises(ConfigurationError, match="NaN"):
            Reader("r0", (0.0, 0.0), detection_threshold_dbm=float("nan"))

    def test_empty_id_rejected(self):
        with pytest.raises(ConfigurationError):
            Reader("", (0.0, 0.0))
