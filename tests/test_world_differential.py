"""Differential tests: the window-block world equals the per-beacon world.

The simulator builds each tag's mean field once, and emits the beacons
of one ``run_for`` window as one block: one normal draw, one RSSI
mapping and one detection test for every reader and beacon, then one
fault-injector call per beacon and delivery. The oracle below is the
per-beacon, per-reader route it replaced, kept here and only here: per
beacon and reader, a fresh ``mean_rssi`` at the tag's position, a
fading draw, a noise draw, and the scalar detection rule. It is patched
in for the window emission, so both routes pop, reschedule and deliver
through the same simulator. They must hand the fault injector the same
record blocks at the same times, deliver the same ``ReadingRecord``
stream, bit for bit, count the same frames at every reader, leave the
same ``FaultEvent`` trail, and leave both the per-reading and the beacon
RNG in the same state.

The field's wall crossings are decided one wall at a time for all links
(``segments_intersect_many``). Their oracle is the per-link route it
replaced, also kept here: one ``Segment`` per link and the scalar
``segments_intersect`` once per wall. Both must agree on every link,
and the mean field built on either must be the same bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_paper_deployment, environment_by_name, paper_testbed_grid
from repro.calibration import CalibrationPolicy
from repro.exceptions import ChannelError, GeometryError
from repro.faults import (
    BurstLossFault,
    DelayFault,
    FaultInjector,
    FaultPlan,
    ReaderOutageFault,
    chaos_preset,
    zone_chaos_preset,
)
from repro.geometry.placement import corner_reader_positions
from repro.geometry.rooms import Room
from repro.geometry.vector import (
    _EPS,
    Segment,
    segments_intersect,
    segments_intersect_many,
)
from repro.hardware.readers import Reader, ReadingRecord
from repro.hardware.simulator import TestbedSimulator
from repro.hardware.tags import ActiveTag, TagSpec
from repro.rf.disturbance import HumanMovementDisturbance
from repro.rf.fading import NoFading, RicianFading
from repro.service.pipeline import ServiceConfig
from repro.zones import RoamingTag, ZoneGateway, scaled_site_plan

from .conftest import fading_free_channel

ENVS = ("Env1", "Env2", "Env3")
TRACKING = {"track-1": (1.3, 1.7), "track-2": (0.4, 2.6), "track-3": (2.5, 0.5)}


# -- the oracle: the per-beacon, per-reader route --------------------------------


def legacy_fading_db(fading, rng, shape):
    if isinstance(fading, NoFading):
        return np.zeros(shape)
    assert isinstance(fading, RicianFading)
    k = fading.k_factor
    los = np.sqrt(k / (k + 1.0))
    scatter_scale = np.sqrt(1.0 / (2.0 * (k + 1.0)))
    g = rng.standard_normal((*shape, 2)) * scatter_scale
    power = (los + g[..., 0]) ** 2 + g[..., 1] ** 2
    db = 10.0 * np.log10(np.maximum(power, 1e-12))
    return np.maximum(db, fading.floor_db)


def legacy_sample_rssi(channel, k, positions, rng, *, n_reads=1, extra=0.0):
    mean = channel.mean_rssi(k, positions)
    n = mean.shape[0]
    out = np.broadcast_to(mean[:, np.newaxis], (n, n_reads)).copy()
    out -= np.broadcast_to(np.asarray(extra, dtype=np.float64), (n,))[:, np.newaxis]
    out += legacy_fading_db(channel.fading, rng, (n, n_reads))
    if channel.noise_sigma_db > 0:
        out += rng.standard_normal((n, n_reads)) * channel.noise_sigma_db
    return np.maximum(out, channel.sensitivity_dbm)


def oracle_detect(reader, tag_id, time_s, rssi_dbm):
    """The scalar detection rule: one reader, one frame, one counter."""
    if not math.isfinite(rssi_dbm) or rssi_dbm < reader.detection_threshold_dbm:
        reader.frames_dropped += 1
        return None
    reader.frames_received += 1
    return ReadingRecord(reader.reader_id, tag_id, float(time_s), rssi_dbm)


def oracle_emit_beacon(self, index, now):
    tag = self.tags[index]
    pos = np.asarray(tag.position)[np.newaxis, :]
    extra_base = 0.0 - tag.offset_db
    records = []
    for k, reader in enumerate(self.readers):
        extra = extra_base
        for disturbance in self.disturbances:
            person = disturbance.position_at(now)
            extra += (
                0.0
                if person is None
                else disturbance._link_attenuation(person, tag.position, reader.position)
            )
        rssi = float(
            legacy_sample_rssi(self.channel, k, pos, self._sample_rng, extra=extra)[0, 0]
        )
        record = oracle_detect(reader, tag.tag_id, now, rssi)
        if record is not None:
            records.append(record)
    # Delivery is not what this oracle replaces: one injector call for
    # the beacon's records, then delivery in order, as the simulator does.
    if records and self._fault_injector is not None:
        records = self._fault_injector.process(records, now)
    self._deliver(records)


def oracle_emit_window(self, beacons):
    """The window emitted one beacon at a time, in pop order."""
    for now, index in beacons:
        oracle_emit_beacon(self, index, now)


# -- recording harness ----------------------------------------------------------


def _bits(record) -> tuple:
    return (record.reader_id, record.tag_id, record.time_s.hex(), record.rssi_dbm.hex())


def _event_bits(event) -> tuple:
    return (event.time_s.hex(), event.kind, repr(sorted(event.fields.items())))


@contextmanager
def recorded_world(*, legacy: bool):
    """Record the record path of every simulator built in the block.

    Yields ``(stream, simulators, injectors)``. The stream interleaves
    ``("read", time, records)`` entries (one beacon's detected records
    as they enter a fault injector) and ``("out", record)`` entries
    (what reaches delivery), in the order they happened across every
    simulator built in the block.
    """
    stream: list[tuple] = []
    sims: list[TestbedSimulator] = []
    injectors: list[FaultInjector] = []
    init = TestbedSimulator.__init__
    injector_init = FaultInjector.__init__
    process = FaultInjector.process
    deliver = TestbedSimulator._deliver

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sims.append(self)

    def tracked_injector_init(self, *args, **kwargs):
        injector_init(self, *args, **kwargs)
        injectors.append(self)

    def tracked_process(self, records, now_s):
        stream.append(("read", now_s.hex(), [_bits(r) for r in records]))
        return process(self, records, now_s)

    def tracked_deliver(self, records):
        stream.extend(("out", _bits(record)) for record in records)
        deliver(self, records)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(TestbedSimulator, "__init__", tracked_init)
        m.setattr(FaultInjector, "__init__", tracked_injector_init)
        m.setattr(FaultInjector, "process", tracked_process)
        m.setattr(TestbedSimulator, "_deliver", tracked_deliver)
        if legacy:
            m.setattr(TestbedSimulator, "_emit_window", oracle_emit_window)
        yield stream, sims, injectors


def run_both(scenario):
    """Run ``scenario()`` on both worlds; return (new, legacy) observations."""
    out = []
    for legacy in (False, True):
        with recorded_world(legacy=legacy) as (stream, sims, injectors):
            result = scenario()
        states = [
            (s._sample_rng.bit_generator.state, s._beacon_rng.bit_generator.state)
            for s in sims
        ]
        frames = [
            (r.reader_id, r.frames_received, r.frames_dropped)
            for s in sims
            for r in s.readers
        ]
        events = [[_event_bits(e) for e in i.events] for i in injectors]
        out.append((stream, states, frames, events, result))
    return out


def assert_same_world(scenario, *, min_reads=1):
    """Both routes observe the same world; returns the scenario's result."""
    new, old = run_both(scenario)
    (new_stream, new_states, new_frames, new_events, result) = new
    (old_stream, old_states, old_frames, old_events, _) = old
    assert sum(kind == "out" for kind, *_ in old_stream) >= min_reads
    assert len(new_stream) == len(old_stream)
    assert new_stream == old_stream
    assert new_states == old_states
    assert new_frames == old_frames
    assert new_events == old_events
    return result


# -- simulator-level scenarios --------------------------------------------------


class TestSimulatorDifferential:
    @pytest.mark.parametrize("env", ENVS)
    def test_every_env_preset(self, env):
        def scenario():
            dep = build_paper_deployment(
                environment_by_name(env), tracking_tags=TRACKING, seed=3
            )
            dep.simulator.run_for(12.0)

        assert_same_world(scenario, min_reads=300)

    @pytest.mark.parametrize("env", ENVS)
    def test_moved_tracking_tags(self, env):
        def scenario():
            dep = build_paper_deployment(
                environment_by_name(env), tracking_tags=TRACKING, seed=1
            )
            dep.simulator.run_for(5.0)
            dep.move_tracking_tag("track-1", (2.2, 2.9))
            dep.simulator.run_for(3.1)
            dep.move_tracking_tag("track-1", (0.7, 0.2))
            dep.move_tracking_tag("track-2", (1.5, 1.5))
            dep.simulator.run_for(4.0)
            # Back to the start: the column must follow the move back.
            dep.move_tracking_tag("track-1", TRACKING["track-1"])
            dep.simulator.run_for(4.0)

        assert_same_world(scenario, min_reads=300)

    def test_packed_tags(self):
        # Eleven tracking tags packed inside 0.5 m: crowded windows of
        # near-identical field rows.
        packed = {
            f"pack-{i}": (1.5 + 0.04 * math.cos(i), 1.5 + 0.04 * math.sin(i))
            for i in range(11)
        }

        def scenario():
            dep = build_paper_deployment(
                environment_by_name("Env2"),
                tracking_tags=packed,
                seed=2,
            )
            dep.simulator.run_for(10.0)

        assert_same_world(scenario, min_reads=300)

    @pytest.mark.parametrize("env", ENVS)
    def test_human_movement_disturbance(self, env):
        walkers = (
            HumanMovementDisturbance(
                ((-0.5, 1.4), (3.5, 1.6)), speed_mps=1.0, start_time_s=1.0
            ),
            HumanMovementDisturbance(
                ((1.5, -0.5), (1.4, 3.5), (0.0, 0.0)),
                speed_mps=1.5,
                attenuation_db=12.0,
                start_time_s=2.0,
            ),
        )

        def scenario():
            dep = build_paper_deployment(
                environment_by_name(env),
                tracking_tags=TRACKING,
                seed=4,
                disturbances=walkers,
            )
            dep.simulator.run_for(10.0)

        assert_same_world(scenario, min_reads=300)

    @pytest.mark.parametrize("noise_sigma_db", [0.0, 0.7])
    def test_no_fading_channel(self, noise_sigma_db):
        env = dataclasses.replace(
            environment_by_name("Env3"), noise_sigma_db=noise_sigma_db
        )
        readers_xy = corner_reader_positions(paper_testbed_grid(), margin=1.0)

        def scenario():
            channel = fading_free_channel(env, readers_xy, seed=5)
            tags = [
                ActiveTag(f"ref-{i}", tuple(p), is_reference=True)
                for i, p in enumerate(paper_testbed_grid().tag_positions())
            ]
            tags.append(ActiveTag("track-1", (1.2, 2.3)))
            readers = [
                Reader(f"reader-{k}", tuple(p)) for k, p in enumerate(readers_xy)
            ]
            sim = TestbedSimulator(channel, tags, readers, seed=5)
            sim.run_for(6.0)
            sim.tag("track-1").move_to((2.8, 0.1))
            sim.run_for(6.0)

        assert_same_world(scenario, min_reads=300)


# -- the served worlds: zones with a roaming tag and the chaos script -----------


def _chaos_gateway_run(tmp_path, tag: str, duration: float = 12.0):
    roam = RoamingTag(
        "roam",
        (
            (0.0, (1.5, 1.5)),
            (duration / 3, (6.0, 1.5)),
            (2 * duration / 3, (6.0, 6.0)),
        ),
    )
    plan = scaled_site_plan("Env1", 4, seed=0, roaming=(roam,))
    faults = FaultPlan(
        tuple(chaos_preset("severe", seed=0))
        + tuple(
            ReaderOutageFault(reader, start_s=duration / 3, duration_s=math.inf)
            for reader in ("reader-1", "reader-2")
        )
        + tuple(zone_chaos_preset("crash", zone_id="z1", seed=0, start_s=duration / 2)),
        seed=0,
    )
    ckpt = tmp_path / tag
    ckpt.mkdir()
    gateway = ZoneGateway(
        plan,
        ServiceConfig(calibration=CalibrationPolicy()),
        fault_plan=faults,
        checkpoint_dir=str(ckpt),
    )
    return gateway.run(duration)


class TestServedWorldDifferential:
    def test_roaming_tag_zone_run(self):
        roam = RoamingTag("roam", ((0.0, (1.5, 1.5)), (6.0, (6.0, 1.5))))

        def scenario():
            plan = scaled_site_plan("Env2", 2, seed=7, roaming=(roam,))
            ZoneGateway(plan, ServiceConfig()).run(8.0)

        assert_same_world(scenario, min_reads=500)

    def test_zones_chaos_fault_script(self, tmp_path):
        runs = iter(("new", "legacy"))
        reports = []

        def scenario():
            reports.append(_chaos_gateway_run(tmp_path, next(runs)))

        assert_same_world(scenario, min_reads=500)
        new, legacy = reports
        assert int(new.summary["zone_respawns"]) >= 1
        assert [
            (zid, r.tag_id, r.position) for zid, z in new.zones.items() for r in z.results
        ] == [
            (zid, r.tag_id, r.position)
            for zid, z in legacy.zones.items()
            for r in z.results
        ]


# -- windows: the block against the per-beacon oracle over schedules -------------


@functools.lru_cache(maxsize=None)
def _window_channel(seed: int, fading: bool):
    readers_xy = corner_reader_positions(paper_testbed_grid(), margin=1.0)
    env = environment_by_name("Env3")
    if fading:
        return env.build_channel(readers_xy, seed=seed)
    return fading_free_channel(env, readers_xy, seed=seed)


_POINT = st.tuples(st.floats(-0.5, 3.5), st.floats(-0.5, 3.5))
# A window of 0 s, one shorter than a beacon interval, or one spanning
# several intervals (a tag then beacons twice or more in it); after it,
# maybe move a tracking tag.
_WINDOW = st.tuples(
    st.one_of(st.just(0.0), st.floats(0.01, 1.9), st.floats(2.5, 7.0)),
    st.one_of(st.none(), st.tuples(st.sampled_from(["mover", "dier"]), _POINT)),
)


@st.composite
def _window_case(draw):
    return dict(
        seed=draw(st.integers(0, 3)),
        fading=draw(st.booleans()),
        jitter=draw(st.sampled_from([0.0, 0.2])),
        battery=draw(st.sampled_from([None, 1, 2, 4])),
        walker=draw(st.booleans()),
        faults=draw(st.sampled_from(["none", "delay", "drop", "delay+drop"])),
        deaf_threshold=draw(st.sampled_from([None, -72.0])),
        sink=draw(st.booleans()),
        windows=draw(st.lists(_WINDOW, min_size=1, max_size=6)),
    )


def _window_scenario(case):
    spec = TagSpec(beacon_interval_s=2.0, beacon_jitter_s=case["jitter"])
    tags = [
        ActiveTag(f"ref-{i}", p, spec, is_reference=True)
        for i, p in enumerate(((0.0, 0.0), (3.0, 0.0), (0.0, 3.0), (3.0, 3.0)))
    ]
    tags.append(ActiveTag("mover", (1.3, 1.7), spec))
    tags.append(
        ActiveTag(
            "dier",
            (1.4, 1.6),
            dataclasses.replace(spec, battery_life_beacons=case["battery"]),
        )
    )
    tags[-1].offset_db = -2.5
    readers_xy = corner_reader_positions(paper_testbed_grid(), margin=1.0)
    readers = [Reader(f"reader-{k}", tuple(p)) for k, p in enumerate(readers_xy)]
    if case["deaf_threshold"] is not None:
        readers[1].detection_threshold_dbm = case["deaf_threshold"]
    walkers = ()
    if case["walker"]:
        walkers = (
            HumanMovementDisturbance(
                ((-0.5, 1.5), (3.5, 1.6), (1.5, -0.5)),
                speed_mps=0.8,
                body_radius_m=1.0,
                attenuation_db=10.0,
                start_time_s=0.5,
            ),
        )
    faults = {
        "none": (),
        "delay": (DelayFault(delay_s=0.7, jitter_s=1.3),),
        "drop": (BurstLossFault(p_enter_bad=0.4, p_exit_bad=0.3, loss_good=0.1),),
        "delay+drop": (
            BurstLossFault(reader_id="reader-2", p_enter_bad=0.5),
            DelayFault(reader_id="reader-0", delay_s=0.3, jitter_s=2.5),
        ),
    }[case["faults"]]

    start = [tag.position for tag in tags]

    def scenario():
        for tag, position in zip(tags, start):  # each run starts afresh
            tag.beacons_sent = 0
            tag.move_to(position)
        for reader in readers:
            reader.frames_received = reader.frames_dropped = 0
        sim = TestbedSimulator(
            _window_channel(case["seed"], case["fading"]),
            tags,
            readers,
            seed=case["seed"],
            disturbances=walkers,
        )
        if faults:
            sim.set_fault_injector(FaultInjector(FaultPlan(faults, seed=case["seed"])))
        delivered = []
        if case["sink"]:
            sim.set_record_sink(delivered.append)
        fired = []
        for duration, move in case["windows"]:
            fired.append((sim.run_for(duration), sim.now.hex()))
            if move is not None:
                sim.tag(move[0]).move_to(move[1])
        return fired, [t.beacons_sent for t in tags], len(delivered)

    return scenario


@settings(max_examples=40, deadline=None)
@given(case=_window_case())
def test_window_block_equals_the_per_beacon_oracle(case):
    scenario = _window_scenario(case)
    new, old = run_both(scenario)
    assert new[1:] == old[1:]
    assert new[0] == old[0]  # the record path, entry by entry


def test_window_cases_reach_every_branch():
    """The property's generator reaches what the window block must get right."""
    case = dict(
        seed=1, fading=True, jitter=0.0, battery=2, walker=True,
        faults="delay+drop", deaf_threshold=-72.0, sink=False,
        windows=[(0.0, None), (1.0, ("mover", (2.5, 0.5))), (6.0, None),
                 (6.5, ("dier", (0.5, 2.5))), (3.0, None)],
    )
    result = assert_same_world(_window_scenario(case), min_reads=20)
    fired, beacons_sent, _ = result
    assert fired[0][0] == 0  # the empty window pops nothing
    assert max(n for n, _ in fired) > 6  # more beacons than tags: some tag twice
    assert beacons_sent[-1] == 2  # the battery died mid-run
    with recorded_world(legacy=False) as (stream, sims, injectors):
        _window_scenario(case)()
    (sim,) = sims
    assert sim.readers[1].frames_dropped > 0 < sim.readers[1].frames_received
    assert injectors[0].records_delayed > 0 and injectors[0].records_dropped > 0


def test_one_channel_call_per_window(monkeypatch):
    dep = build_paper_deployment(
        environment_by_name("Env1"), tracking_tags=TRACKING, seed=0
    )
    sim = dep.simulator
    calls = []
    sample = type(sim.channel).sample_rssi_matrix

    def counting(self, *args, **kwargs):
        calls.append(kwargs["mean"].shape)
        return sample(self, *args, **kwargs)

    monkeypatch.setattr(type(sim.channel), "sample_rssi_matrix", counting)
    sent = sum(t.beacons_sent for t in sim.tags)
    for _ in range(8):
        sim.run_for(0.5)
    sim.run_for(0.0)
    beacons = sum(t.beacons_sent for t in sim.tags) - sent
    assert len(calls) == 8  # one per non-empty window, none for 0 s
    assert sum(rows for rows, _ in calls) == beacons * sim.channel.n_readers


# -- the block draw against K sequential per-reader draws ----------------------


@settings(max_examples=60, deadline=None)
@given(
    env=st.sampled_from(ENVS),
    n=st.integers(1, 16),
    n_reads=st.integers(1, 8),
    noisy=st.booleans(),
    fading=st.sampled_from(["rician", "none"]),
    seed=st.integers(0, 2**32 - 1),
    extra=st.one_of(
        st.none(), st.floats(-20.0, 20.0, allow_nan=False, allow_subnormal=False)
    ),
)
def test_block_draw_equals_sequential_reader_draws(
    env, n, n_reads, noisy, fading, seed, extra
):
    spec = environment_by_name(env)
    if not noisy:
        spec = dataclasses.replace(spec, noise_sigma_db=0.0)
    readers_xy = corner_reader_positions(paper_testbed_grid(), margin=1.0)
    if fading == "none":
        channel = fading_free_channel(spec, readers_xy, seed=seed % 97)
    else:
        channel = spec.build_channel(readers_xy, seed=seed % 97)
    pts = np.random.default_rng(seed).uniform(-0.5, 3.5, size=(n, 2))
    # Per-(reader, tag) attenuation, or none at all.
    att = (
        0.0
        if extra is None
        else extra + np.arange(channel.n_readers * n).reshape(-1, n) / 7.0
    )

    rng_old = np.random.default_rng(seed)
    expected = np.stack(
        [
            legacy_sample_rssi(
                channel,
                k,
                pts,
                rng_old,
                n_reads=n_reads,
                extra=att if extra is None else att[k],
            ).mean(axis=1)
            for k in range(channel.n_readers)
        ]
    )
    rng_new = np.random.default_rng(seed)
    got = channel.sample_rssi_matrix(
        None,
        rng_new,
        n_reads=n_reads,
        mean=channel.mean_rssi_matrix(pts),
        extra_attenuation_db=att,
    )
    assert got.tobytes() == expected.tobytes()
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    # Without ``mean=`` the channel computes the same field itself.
    rng_again = np.random.default_rng(seed)
    again = channel.sample_rssi_matrix(
        pts, rng_again, n_reads=n_reads, extra_attenuation_db=att
    )
    assert again.tobytes() == expected.tobytes()


def test_mean_field_and_positions_are_exclusive():
    readers_xy = corner_reader_positions(paper_testbed_grid(), margin=1.0)
    channel = environment_by_name("Env1").build_channel(readers_xy, seed=0)
    pts = np.array([[1.0, 1.0], [2.0, 2.5]])
    field = channel.mean_rssi_matrix(pts)
    rng = np.random.default_rng(0)
    with pytest.raises(ChannelError, match="not both"):
        channel.sample_rssi_matrix(pts, rng, mean=field)
    with pytest.raises(ChannelError, match="mean field must have shape"):
        channel.sample_rssi_matrix(None, rng, mean=field[:3])


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(0, 3),
    n=st.integers(1, 7),
    n_reads=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_reader_sample_equals_oracle(k, n, n_reads, seed):
    readers_xy = corner_reader_positions(paper_testbed_grid(), margin=1.0)
    channel = environment_by_name("Env3").build_channel(readers_xy, seed=seed % 89)
    pts = np.random.default_rng(seed).uniform(0.0, 3.0, size=(n, 2))
    rng_old, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = legacy_sample_rssi(channel, k, pts, rng_old, n_reads=n_reads, extra=1.5)
    got = channel.sample_rssi(k, pts, rng_new, n_reads=n_reads, extra_attenuation_db=1.5)
    assert got.tobytes() == expected.tobytes()
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


def test_field_is_built_once_and_follows_moves(monkeypatch):
    dep = build_paper_deployment(
        environment_by_name("Env1"), tracking_tags=TRACKING, seed=0
    )
    sim = dep.simulator
    calls = []
    field = type(sim.channel).mean_rssi_matrix

    def counting(self, positions):
        calls.append(len(positions))
        return field(self, positions)

    monkeypatch.setattr(type(sim.channel), "mean_rssi_matrix", counting)
    sim.run_for(10.0)
    assert calls == []  # the construction-time field serves every beacon
    dep.move_tracking_tag("track-2", (2.0, 2.0))
    sim.run_for(10.0)
    assert calls == [1]  # one recompute per move, not per beacon


# -- wall crossings: one vectorised test per wall against the per-link loop -----


def oracle_crossings(starts, end, wall):
    """Today's route before the array form: one ``Segment`` per link."""
    end_pt = (float(end[0]), float(end[1]))
    return [
        segments_intersect(Segment((float(p[0]), float(p[1])), end_pt), wall)
        for p in np.asarray(starts, dtype=np.float64)
    ]


def oracle_crossing_attenuation_db(room, starts, end):
    """The per-link wall loop ``Room.crossing_attenuation_db`` replaced."""
    out = []
    for p in np.asarray(starts, dtype=np.float64):
        path = Segment((float(p[0]), float(p[1])), (float(end[0]), float(end[1])))
        total = 0.0
        for wall in room.walls:
            if wall.attenuation_db > 0.0 and segments_intersect(path, wall.segment):
                total += wall.attenuation_db
        out.append(total)
    return np.array(out)


_coord = st.floats(-6.0, 6.0, allow_nan=False, allow_subnormal=False)
_unit = st.floats(-0.5, 1.5, allow_nan=False, allow_subnormal=False)
_jitter = st.sampled_from([0.0, 1e-15, -1e-15, 1e-13, -1e-12, 1e-12, 3e-10])


@st.composite
def _wall(draw):
    a = (draw(_coord), draw(_coord))
    if draw(st.booleans()):
        # Point-like: constructible, but at or below _POINT_LIKE.
        length = draw(st.floats(1e-12, 1e-9))
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        b = (a[0] + length * math.cos(angle), a[1] + length * math.sin(angle))
    else:
        b = (draw(_coord), draw(_coord))
    try:
        return Segment(a, b)
    except GeometryError:
        return Segment(a, (a[0] + 1.0, a[1]))


def _on_line(wall, mu, jitter):
    """A point at ``mu`` along the wall's line, nudged off it by ``jitter``."""
    ax, ay = wall.a
    dx, dy = wall.b[0] - ax, wall.b[1] - ay
    return (ax + mu * dx - jitter * dy, ay + mu * dy + jitter * dx)


@st.composite
def _link_point(draw, wall, end=None):
    kind = draw(st.sampled_from(
        ["free", "wall-a", "wall-b", "interior", "collinear", "parallel"]
    ))
    if kind == "free":
        return (draw(_coord), draw(_coord))
    if kind == "wall-a":
        return wall.a
    if kind == "wall-b":
        return wall.b
    if kind == "interior":
        return _on_line(wall, draw(st.floats(0.0, 1.0)), 0.0)
    if kind == "collinear":
        return _on_line(wall, draw(_unit), draw(_jitter))
    if end is None:
        return (draw(_coord), draw(_coord))
    # Parallel: the link runs along the wall's direction from the end.
    c = draw(st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3))
    j = draw(_jitter)
    dx, dy = wall.b[0] - wall.a[0], wall.b[1] - wall.a[1]
    return (end[0] + c * dx - j * dy, end[1] + c * dy + j * dx)


@st.composite
def _crossing_case(draw):
    wall = draw(_wall())
    end = draw(_link_point(wall))
    starts = draw(st.lists(_link_point(wall, end), min_size=1, max_size=24))
    # A zero-length link raises on both routes (tested below); keep the
    # links the oracle can build.
    kept = []
    for p in starts:
        try:
            Segment(p, end)
        except GeometryError:
            continue
        kept.append(p)
    if not kept:
        kept = [(end[0] + 1.0, end[1] - 1.0)]
    return wall, np.array(kept, dtype=np.float64), end


@settings(max_examples=400, deadline=None)
@given(case=_crossing_case())
def test_vectorised_crossings_equal_the_per_link_oracle(case):
    wall, starts, end = case
    got = segments_intersect_many(starts, end, wall)
    assert got.dtype == np.bool_
    assert got.tolist() == oracle_crossings(starts, end, wall)


# Links whose crossing parameter lands exactly on an edge of the closed
# ``[-_EPS, 1 + _EPS]`` window. Dyadic coordinates keep ``t`` and ``u``
# exact, so the window's ``<=`` decides them.
_WINDOW_EDGES = [
    # t = 1 + _EPS: the wall sits just beyond the link's end.
    (Segment((1.0 + _EPS, -1.0), (1.0 + _EPS, 1.0)), [(0.0, 0.0)], (1.0, 0.0)),
    # t = -_EPS: the wall sits just behind the link's start.
    (Segment((-_EPS, -1.0), (-_EPS, 1.0)), [(0.0, 0.0)], (1.0, 0.0)),
    # u = -_EPS: the link passes just beyond the wall's first end.
    (Segment((0.5, _EPS), (0.5, 1.0 + _EPS)), [(0.0, 0.0)], (1.0, 0.0)),
    # u = 1 + _EPS: the link passes just beyond the wall's second end.
    (
        Segment((0.5, -(1.0 + _EPS)), (0.5, -(1.0 + _EPS) + 1.0)),
        [(0.0, 0.0)],
        (1.0, 0.0),
    ),
]


@pytest.mark.parametrize("wall, starts, end", _WINDOW_EDGES)
def test_tolerance_window_edges_equal_the_oracle(wall, starts, end):
    expected = oracle_crossings(starts, end, wall)
    assert expected == [True]
    assert segments_intersect_many(np.array(starts), end, wall).tolist() == expected


def test_zero_length_link_raises_on_both_routes():
    wall = Segment((0.0, 0.0), (2.0, 0.0))
    starts = np.array([[1.0, 1.0], [0.5, -1.0], [0.5, -1.0]])
    end = (0.5, -1.0)
    with pytest.raises(GeometryError) as scalar:
        oracle_crossings(starts, end, wall)
    with pytest.raises(GeometryError) as vector:
        segments_intersect_many(starts, end, wall)
    assert str(vector.value) == str(scalar.value)
    assert "zero-length" in str(vector.value)


@pytest.mark.parametrize("multipath", [True, False])
@pytest.mark.parametrize("env", ENVS)
def test_mean_field_equals_the_per_link_crossing_oracle(monkeypatch, env, multipath):
    spec = environment_by_name(env)
    if not multipath:
        spec = dataclasses.replace(
            spec, multipath=dataclasses.replace(spec.multipath, max_reflections=0)
        )
    readers_xy = corner_reader_positions(paper_testbed_grid(), margin=1.0)
    xmin, ymin, xmax, ymax = spec.room.bounds
    for seed in range(5):
        channel = spec.build_channel(readers_xy, seed=seed)
        rng = np.random.default_rng(seed)
        inside = np.vstack([
            paper_testbed_grid().tag_positions(),
            rng.uniform((xmin, ymin), (xmax, ymax), size=(40, 2)),
        ])
        # Beyond the walls: these links cross one or two walls.
        outside = rng.uniform(
            (xmin - 3.0, ymin - 3.0), (xmax + 3.0, ymax + 3.0), size=(60, 2)
        )
        pts = np.vstack([inside, outside])
        got = channel.mean_rssi_matrix(pts)
        fallback = [
            reader.images.excess_gain_db(pts) for reader in channel._readers
        ]
        crossings = [
            oracle_crossing_attenuation_db(spec.room, pts, xy) for xy in readers_xy
        ]
        assert any(c.any() for c in crossings)
        with monkeypatch.context() as m:
            m.setattr(
                Room, "crossing_attenuation_db", oracle_crossing_attenuation_db
            )
            expected = channel.mean_rssi_matrix(pts)
            expected_fallback = [
                reader.images.excess_gain_db(pts) for reader in channel._readers
            ]
        assert got.tobytes() == expected.tobytes()
        for a, b in zip(fallback, expected_fallback):
            assert a.tobytes() == b.tobytes()
        for k, xy in enumerate(readers_xy):
            att = spec.room.crossing_attenuation_db(pts, xy)
            assert att.tobytes() == crossings[k].tobytes()
