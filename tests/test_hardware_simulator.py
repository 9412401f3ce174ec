"""Tests for the testbed simulator and deployment builder."""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_paper_deployment
from repro.exceptions import ConfigurationError, SimulationError
from repro.hardware.readers import Reader
from repro.hardware.simulator import TestbedSimulator as Simulator
from repro.hardware.tags import ActiveTag, TagSpec
from repro.rf.disturbance import HumanMovementDisturbance

from .conftest import make_clean_environment


@pytest.fixture
def clean_env():
    return make_clean_environment()


def build(env, seed=0, tracking=None, **kwargs):
    tracking = tracking if tracking is not None else {"track-1": (1.3, 1.7)}
    return build_paper_deployment(env, tracking_tags=tracking, seed=seed, **kwargs)


class TestDeployment:
    def test_builds_expected_population(self, clean_env):
        dep = build(clean_env)
        sim = dep.simulator
        assert len(sim.tags) == 17  # 16 reference + 1 tracking
        assert len(sim.readers) == 4
        assert sum(t.is_reference for t in sim.tags) == 16

    def test_reader_positions_match_channel(self, clean_env):
        dep = build(clean_env)
        np.testing.assert_allclose(
            np.array([r.position for r in dep.simulator.readers]),
            dep.simulator.channel.reader_positions,
        )

    def test_tracking_truth_registered(self, clean_env):
        dep = build(clean_env)
        assert dep.tracking_truth == {"track-1": (1.3, 1.7)}

    def test_move_tracking_tag_updates_truth(self, clean_env):
        dep = build(clean_env)
        dep.move_tracking_tag("track-1", (2.0, 2.0))
        assert dep.tracking_truth["track-1"] == (2.0, 2.0)
        assert dep.simulator.tag("track-1").position == (2.0, 2.0)

    def test_move_unknown_tag_rejected(self, clean_env):
        dep = build(clean_env)
        with pytest.raises(ConfigurationError):
            dep.move_tracking_tag("ref-0", (2.0, 2.0))

    def test_reader_outside_room_rejected(self):
        import dataclasses

        from repro.geometry.rooms import rectangular_room

        tiny = dataclasses.replace(
            make_clean_environment(),
            room=rectangular_room(2.0, 2.0, name="tiny"),
        )
        with pytest.raises(ConfigurationError, match="outside room"):
            build(tiny)

    def test_offsets_drawn_from_environment(self):
        env = make_clean_environment(
            reference_tag_offset_sigma_db=3.0, tracking_tag_offset_sigma_db=1.0
        )
        dep = build(env, seed=1)
        ref_offsets = [
            t.offset_db for t in dep.simulator.tags if t.is_reference
        ]
        assert np.std(ref_offsets) > 0.5
        trk = dep.simulator.tag("track-1")
        assert trk.offset_db != 0.0

    def test_offsets_deterministic_per_seed(self):
        env = make_clean_environment(reference_tag_offset_sigma_db=3.0)
        o1 = [t.offset_db for t in build(env, seed=5).simulator.tags]
        o2 = [t.offset_db for t in build(env, seed=5).simulator.tags]
        assert o1 == o2


class TestSimulator:
    def test_warm_up_reaches_full_coverage(self, clean_env):
        dep = build(clean_env)
        t = dep.simulator.warm_up()
        cov = dep.simulator.middleware.coverage(t)
        assert all(v == 1.0 for v in cov.values())

    def test_reading_snapshot_available_after_warmup(self, clean_env):
        dep = build(clean_env)
        dep.simulator.warm_up()
        reading = dep.simulator.reading_for("track-1")
        assert reading.n_readers == 4
        assert reading.n_references == 16

    def test_clean_env_reading_matches_path_loss(self, clean_env):
        dep = build(clean_env)
        dep.simulator.warm_up()
        dep.simulator.run_for(10.0)
        reading = dep.simulator.reading_for("track-1")
        pos = np.array([1.3, 1.7])
        for k, reader in enumerate(dep.simulator.readers):
            d = np.linalg.norm(pos - np.asarray(reader.position))
            expected = float(clean_env.path_loss.rssi(d))
            assert reading.tracking_rssi[k] == pytest.approx(expected, abs=0.3)

    def test_deterministic_given_seed(self, clean_env):
        def run(seed):
            dep = build(clean_env, seed=seed)
            dep.simulator.warm_up()
            dep.simulator.run_for(6.0)
            return dep.simulator.reading_for("track-1").tracking_rssi

        np.testing.assert_array_equal(run(3), run(3))

    def test_beacons_arrive_at_interval_rate(self, clean_env):
        dep = build(clean_env)
        dep.simulator.run_for(20.0)
        # 17 tags beaconing every ~2 s for 20 s -> about 170 beacons.
        total = sum(t.beacons_sent for t in dep.simulator.tags)
        assert 120 <= total <= 220

    def test_dead_battery_stops_beaconing(self, clean_env):
        dep = build(
            clean_env,
            tag_spec=TagSpec(beacon_interval_s=2.0, beacon_jitter_s=0.1,
                             battery_life_beacons=3),
        )
        dep.simulator.run_for(30.0)
        for tag in dep.simulator.tags:
            assert tag.beacons_sent == 3

    def test_one_injector_call_per_heard_beacon(self, clean_env):
        from repro.faults import FaultInjector, FaultPlan

        dep = build(clean_env)
        sim = dep.simulator
        sim.readers[2].detection_threshold_dbm = 0.0  # hears nothing
        injector = FaultInjector(FaultPlan())
        blocks = []
        process = injector.process

        def spy(records, now_s):
            blocks.append(list(records))
            return process(records, now_s)

        injector.process = spy
        sim.set_fault_injector(injector)
        sent = sum(t.beacons_sent for t in sim.tags)
        sim.run_for(10.0)
        beacons = sum(t.beacons_sent for t in sim.tags) - sent
        # Every beacon is heard by the three live readers: one call each,
        # its records in reader order, one tag and one time per block.
        assert len(blocks) == beacons > 0
        order = [r.reader_id for r in sim.readers if r is not sim.readers[2]]
        for block in blocks:
            assert [r.reader_id for r in block] == order
            assert len({(r.tag_id, r.time_s) for r in block}) == 1
        assert injector.records_seen == sum(len(b) for b in blocks)
        assert sim.readers[2].frames_received == 0
        assert sim.readers[2].frames_dropped > 0

    def test_negative_duration_rejected(self, clean_env):
        dep = build(clean_env)
        with pytest.raises(SimulationError):
            dep.simulator.run_for(-1.0)

    def test_unknown_tag_lookup_rejected(self, clean_env):
        dep = build(clean_env)
        with pytest.raises(ConfigurationError):
            dep.simulator.tag("nope")

    def test_tag_offset_shifts_reading(self):
        env = make_clean_environment()
        dep = build(env, seed=0)
        dep.simulator.tag("track-1").offset_db = 10.0
        dep.simulator.warm_up()
        dep.simulator.run_for(10.0)
        boosted = dep.simulator.reading_for("track-1").tracking_rssi

        dep2 = build(env, seed=0)
        dep2.simulator.warm_up()
        dep2.simulator.run_for(10.0)
        plain = dep2.simulator.reading_for("track-1").tracking_rssi
        np.testing.assert_allclose(boosted - plain, 10.0, atol=0.5)

    def test_duplicate_tag_ids_rejected(self, clean_env, readers):
        channel = clean_env.build_channel(readers, seed=0)
        tags = [
            ActiveTag("dup", (0.0, 0.0), is_reference=True),
            ActiveTag("dup", (1.0, 0.0), is_reference=True),
        ]
        rs = [Reader(f"r{k}", tuple(p)) for k, p in enumerate(readers)]
        with pytest.raises(ConfigurationError, match="unique"):
            Simulator(channel, tags, rs)

    def test_reader_channel_mismatch_rejected(self, clean_env, readers):
        channel = clean_env.build_channel(readers, seed=0)
        tags = [ActiveTag("ref", (0.0, 0.0), is_reference=True)]
        rs = [Reader(f"r{k}", (0.0, 0.0)) for k in range(4)]
        with pytest.raises(ConfigurationError, match="mismatches"):
            Simulator(channel, tags, rs)

    def test_needs_reference_tags(self, clean_env, readers):
        channel = clean_env.build_channel(readers, seed=0)
        tags = [ActiveTag("track", (0.0, 0.0))]
        rs = [Reader(f"r{k}", tuple(p)) for k, p in enumerate(readers)]
        with pytest.raises(ConfigurationError, match="no reference tags"):
            Simulator(channel, tags, rs)


class TestDisturbanceIntegration:
    def test_walker_dips_readings(self):
        from repro.hardware.middleware import SmoothingSpec

        env = make_clean_environment()
        # The walker inches along x=0.15, sitting on the line between the
        # tracking tag at (1.3, 1.7) and the SW reader at (-1, -1) for the
        # whole window; "latest" smoothing exposes the dip directly.
        walk = HumanMovementDisturbance(
            waypoints=((0.15, -0.5), (0.15, 1.0)),
            speed_mps=0.1,
            body_radius_m=0.8,
            attenuation_db=15.0,
            start_time_s=0.0,
        )
        common = dict(
            tracking_tags={"track-1": (1.3, 1.7)},
            seed=0,
            smoothing=SmoothingSpec(window=1),
        )
        dep = build_paper_deployment(env, disturbances=[walk], **common)
        dep.simulator.run_for(8.0)
        disturbed = dep.simulator.reading_for("track-1").tracking_rssi.copy()

        dep_free = build_paper_deployment(env, **common)
        dep_free.simulator.run_for(8.0)
        free = dep_free.simulator.reading_for("track-1").tracking_rssi
        # Reader 0 (SW) is obstructed; the others see the same RSSI.
        assert disturbed[0] < free[0] - 3.0
        np.testing.assert_allclose(disturbed[1:], free[1:], atol=1e-9)
