"""The benchmark's three workloads, built from a seed.

Each workload turns ``(seed, scale)`` into a list of :class:`Session`
thunks. Building the inputs (scenarios, zone plans, fault plans, load
profiles) happens here, outside any timed region; calling a thunk runs
one serving session end to end and returns its :class:`SessionOut`.
``scale`` shortens every simulated duration (the self-test and the
warm-up repetition use a small one); the measured runs use ``1.0``.

The program only ever sees the generated inputs: the seed picks the
simulated worlds (tag offsets, RF noise, fault draws) and the arrival
streams, never a code path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import struct
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable

#: Worlds per repetition of site-steady. One seeded world has a
#: systematic error that moves ``mean_error_m`` by ~13% (IQR over
#: median) from seed to seed; a repetition averages eight worlds.
WORLDS = 8
STEADY_SESSION_S = 30.0
#: 2 s at 240/s, then 3 s at 60/s. Burst answers come in calls of
#: ~100 answers, the rest in calls of ~30; at 73% burst answers the
#: median answer lies inside the burst mode, not on the edge between
#: the two modes where it would jump from run to run.
BURST_SESSION_S = 5.0
#: A world's burst is served in only four or five calls, so the latency
#: percentiles need many worlds to stop jumping with the arrival draws.
BURST_WORLDS = 16
#: One 4-zone site (four zone worlds) per repetition: a short repetition
#: gives :func:`run.at_reference_speed` more repetitions to take each
#: call's fastest time from.
CHAOS_WORLDS = 1
#: Long enough for the calibration loop to quarantine the dying
#: reference tags (about 40 s after warm-up).
CHAOS_SESSION_S = 60.0
#: Seed of zones-chaos's fault script. The script is one fixed scenario
#: that every run replays against its own seeded worlds: its draws (which
#: records drop, when a reader flaps) set how much work a run does, and
#: with one site a run, a per-seed script moved the timings by ~20% from
#: seed to seed.
FAULT_SEED = 0


@dataclass
class SessionOut:
    """What one serving session produced (wall-clock facts excluded)."""

    answers: list  # ServiceResult, in serving order
    offered: int
    errors_m: list[float]
    witness: dict[str, Any]
    counts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Session:
    """One serving session: ``zones`` set-ups end it, then it serves.

    ``run`` is the timed call into the program; ``collect`` turns what it
    returned into a :class:`SessionOut` after the clock has stopped.
    """

    zones: int
    run: Callable[[], Any]
    collect: Callable[[Any], SessionOut]


# -- site-steady ---------------------------------------------------------------


def _steady(seed: int, scale: float, tmp_dir: str) -> list[Session]:
    from repro.experiments.scenarios import paper_scenario
    from repro.service.session import LocalizationService

    def session(world_seed: int) -> Session:
        scenario = paper_scenario("Env1", n_trials=1, base_seed=world_seed)

        def run():
            return LocalizationService().run(
                scenario, STEADY_SESSION_S * scale
            )

        def collect(report) -> SessionOut:
            return SessionOut(
                answers=list(report.results),
                offered=int(report.summary["requests"]),
                errors_m=list(report.errors_m),
                witness=report.witness_document(),
            )

        return Session(zones=1, run=run, collect=collect)

    return [session(seed * WORLDS + k) for k in range(WORLDS)]


# -- site-burst ----------------------------------------------------------------


def _burst(seed: int, scale: float, tmp_dir: str) -> list[Session]:
    from repro.loadtest import generator
    from repro.loadtest.profiles import LoadProfile

    def session(world_seed: int) -> Session:
        profile = LoadProfile(
            name="site-burst",
            process="burst",
            n_zones=1,
            rate_per_s=60.0,
            duration_s=BURST_SESSION_S * scale,
            seed=world_seed,
        )

        def run():
            # Looked up on the module at call time, so a traced run sees
            # the wrapped function.
            return generator.run_load_test(profile)

        def collect(report) -> SessionOut:
            return SessionOut(
                answers=list(report.results) + list(report.interim),
                offered=report.offered,
                errors_m=list(report.errors_m),
                witness=report.witness_document(),
            )

        return Session(zones=1, run=run, collect=collect)

    return [session(seed * BURST_WORLDS + k) for k in range(BURST_WORLDS)]


# -- zones-chaos ---------------------------------------------------------------


def _chaos(seed: int, scale: float, tmp_dir: str) -> list[Session]:
    from repro.calibration import CalibrationPolicy
    from repro.faults import (
        FaultPlan,
        ReaderOutageFault,
        chaos_preset,
        zone_chaos_preset,
    )
    from repro.service.pipeline import ServiceConfig
    from repro.zones import RoamingTag, ZoneGateway, scaled_site_plan

    duration = CHAOS_SESSION_S * scale
    # Zone centres of the 2x2 site are 4.5 m apart; the tag walks
    # z0 -> z1 -> z3 and rests there for the last third of the run.
    roam = RoamingTag(
        "roam",
        (
            (0.0, (1.5, 1.5)),
            (duration / 3, (6.0, 1.5)),
            (2 * duration / 3, (6.0, 6.0)),
        ),
    )
    config = ServiceConfig(calibration=CalibrationPolicy())

    def session(world_seed: int) -> Session:
        plan = scaled_site_plan(
            "Env1", 4, seed=world_seed, roaming=(roam,)
        )
        faults = FaultPlan(
            tuple(chaos_preset("severe", seed=FAULT_SEED))
            # The severe preset always leaves two readers up, so VIRE
            # always meets its quorum. Taking two more out makes the
            # quorum fail and LANDMARC answer, once their series go
            # stale (the middleware keeps a silent series for 30 s).
            + tuple(
                ReaderOutageFault(
                    reader, start_s=duration / 3, duration_s=math.inf
                )
                for reader in ("reader-1", "reader-2")
            )
            + tuple(
                zone_chaos_preset(
                    "crash", zone_id="z1", seed=FAULT_SEED,
                    start_s=duration / 2,
                )
            ),
            seed=FAULT_SEED,
        )

        def run():
            ckpt = tempfile.mkdtemp(prefix="chaos-", dir=tmp_dir)
            try:
                gateway = ZoneGateway(
                    plan, config, fault_plan=faults, checkpoint_dir=ckpt
                )
                return gateway.run(duration), ckpt
            except BaseException:
                # A set-up-only pass ends the run at its last arming.
                shutil.rmtree(ckpt, ignore_errors=True)
                raise

        return Session(zones=len(plan.zones), run=run, collect=collect)

    def collect(ran) -> SessionOut:
        report, ckpt = ran
        try:
            wal = [os.path.join(ckpt, n) for n in sorted(os.listdir(ckpt))]
            wal_bytes = sum(os.path.getsize(p) for p in wal)
            wal_records = 0
            for path in wal:
                with open(path, "rb") as fh:
                    wal_records += sum(1 for _ in fh)
        finally:
            shutil.rmtree(ckpt, ignore_errors=True)
        answers = [r for z in report.zones.values() for r in z.results]
        answers += list(report.interim)
        quarantined = {
            (zid, e["tag"])
            for zid, z in report.zones.items()
            for e in z.calibration_events
            if e["event"] == "quarantine"
        }
        s = report.summary
        return SessionOut(
            answers=answers,
            offered=int(s["requests"]) + len(report.interim),
            errors_m=[e for z in report.zones.values() for e in z.errors_m],
            witness=report.witness_document(),
            counts={
                "zones.handoffs": len(report.handoffs),
                "zones.respawns": int(s["zone_respawns"]),
                "calibration.quarantined_tags": len(quarantined),
                "runtime.checkpoint.bytes": wal_bytes,
                "runtime.checkpoint.records": wal_records,
            },
        )

    return [session(seed * CHAOS_WORLDS + k) for k in range(CHAOS_WORLDS)]


#: name -> ``build(seed, scale, tmp_dir)``; why each exists is in
#: ``BENCHMARK.json`` and the README.
WORKLOADS: dict[str, Callable[[int, float, str], list[Session]]] = {
    "site-steady": _steady,
    "site-burst": _burst,
    "zones-chaos": _chaos,
}


# -- answers and their digest ----------------------------------------------------


def answer_line(r) -> str:
    """One answer at full precision (``float.hex``), for the digest."""
    return "|".join(
        (
            r.tag_id,
            float(r.position[0]).hex(),
            float(r.position[1]).hex(),
            r.estimator,
            str(bool(r.degraded)),
            str(r.reason),
            float(r.requested_at_s).hex(),
            float(r.completed_at_s).hex(),
        )
    )


def digest(outs: list[SessionOut]) -> str:
    """SHA-256 over every answer and the program's own witness documents."""
    h = hashlib.sha256()
    for out in outs:
        h.update(json.dumps(out.witness, sort_keys=True).encode())
        for r in out.answers:
            h.update(answer_line(r).encode())
            h.update(b"\n")
    return h.hexdigest()


def flip_one_bit(outs: list[SessionOut]) -> list[SessionOut]:
    """A copy whose first answer has the lowest bit of its x flipped."""
    first = next(i for i, o in enumerate(outs) if o.answers)
    out = outs[first]
    r = out.answers[0]
    (bits,) = struct.unpack("<Q", struct.pack("<d", float(r.position[0])))
    (x,) = struct.unpack("<d", struct.pack("<Q", bits ^ 1))
    flipped = dataclasses.replace(r, position=(x, r.position[1]))
    copy = list(outs)
    copy[first] = dataclasses.replace(
        out, answers=[flipped] + out.answers[1:]
    )
    return copy


def violations(outs: list[SessionOut], reference: str) -> list[str]:
    """Everything wrong with one repetition's answers (empty = correct)."""
    problems = []
    for out in outs:
        bad = [
            r for r in out.answers
            if not all(math.isfinite(float(c)) for c in r.position)
        ]
        if bad:
            problems.append(f"{len(bad)} answers with non-finite positions")
        if len(out.answers) > out.offered:
            problems.append(
                f"{len(out.answers)} answers for {out.offered} requests"
            )
        if not out.errors_m or not all(math.isfinite(e) for e in out.errors_m):
            problems.append("localization errors missing or non-finite")
    if digest(outs) != reference:
        problems.append("answers differ from the first repetition's")
    return problems
