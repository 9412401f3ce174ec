"""Regenerate the golden-trace fixtures under ``tests/golden/``.

Usage (repo root)::

    PYTHONPATH=src python -m tests.regen_golden

The golden traces pin **byte-exact** outputs of the estimation pipeline
— coordinates, thresholds and weight matrices are stored as IEEE-754
hex strings / SHA-256 digests, so ``tests/test_golden_traces.py`` fails
on a single-ULP drift in any of them. Three scenarios are traced:

* ``paper_config.json`` — the paper's clean Env3 testbed, one frozen
  trial, all nine Fig. 2(a) tracking tags, default
  ``VIREConfig(target_total_tags=900)``;
* ``masked_reading.json`` — the same readings with deterministic NaN
  holes (degraded deployments): quorum trimming, hole imputation and
  the relax fallback are all on the traced path;
* ``chaos_preset.json`` — a short chaotic streaming session (moderate
  fault preset) through the full service stack: middleware, breakers,
  batch engine and the degradation ladder;
* ``trace_serve.json`` — the **logical span forest** of that same chaotic
  session recorded through :class:`repro.obs.Tracer`: every ladder
  decision (level/reason/estimator) and batch trigger is pinned, so
  control-flow changes cannot land silently;
* ``trace_fig6.json`` — the logical ``vire.estimate`` span trees for one
  frozen trial of the Fig. 6 scenario in all three environments
  (thresholds, selected-cell counts, fallbacks);
* ``zone_chaos_presets.json`` — the ``repro chaos --zones 2 --json``
  witness under every zone-scoped preset (crash, hang, partition,
  brownout): respawn, timeouts, fall-behind catch-up and handoff
  shedding are all pinned.

Regenerate **only** when a numerical change is intentional, and say why
in the commit message.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.config import VIREConfig
from repro.core.elimination import eliminate
from repro.core.estimator import VIREEstimator
from repro.core.proximity import build_proximity_maps, rssi_deviations
from repro.core.threshold import minimal_feasible_threshold
from repro.core.weighting import combine_weights, compute_w1, compute_w2
from repro.exceptions import ReproError
from repro.experiments.measurement import TrialSampler
from repro.experiments.scenarios import paper_scenario
from repro.rf.environments import env3

GOLDEN_DIR = Path(__file__).parent / "golden"

PAPER_SEED = 0
MASK_SEED = 2024
CHAOS_SEED = 13
CHAOS_DURATION_S = 8.0


def _hex(value: float) -> str:
    return float(value).hex()


def paper_estimator() -> VIREEstimator:
    scenario = paper_scenario(env3(), n_trials=1, base_seed=PAPER_SEED)
    return VIREEstimator(scenario.grid, VIREConfig(target_total_tags=900))


def paper_readings():
    """The frozen trial-0 readings for all nine Fig. 2(a) tags."""
    scenario = paper_scenario(env3(), n_trials=1, base_seed=PAPER_SEED)
    sampler = TrialSampler(
        scenario.environment,
        scenario.grid,
        seed=scenario.trial_seed(0),
        measurement=scenario.measurement,
    )
    labels = list(scenario.tracking_tags)
    positions = [scenario.tracking_tags[label] for label in labels]
    readings = [sampler.reading_for(pos) for pos in positions]
    return labels, positions, readings


def masked_readings():
    """The paper readings with deterministic NaN holes punched in.

    Every third tag additionally loses one whole reader, which pushes
    the reading through quorum trimming.
    """
    labels, positions, readings = paper_readings()
    rng = np.random.default_rng(MASK_SEED)
    masked = []
    for i, reading in enumerate(readings):
        ref = reading.reference_rssi.copy()
        holes = rng.random(ref.shape) < (0.08 + 0.12 * (i % 3))
        ref[holes] = np.nan
        if i % 3 == 2:
            ref[i % reading.n_readers] = np.nan  # one reader fully dark
        masked.append(replace(reading, reference_rssi=ref, masked=True))
    return labels, positions, masked


def trace_weights(est: VIREEstimator, reading) -> tuple[str | None, dict]:
    """SHA-256 of the normalized weight matrix plus step diagnostics.

    Re-runs the scalar pipeline step by step (the exact code
    ``estimate()`` uses) so the trace pins the *intermediate* weight
    tensor, not only the final centroid. Returns ``(None, {})`` when the
    reading takes the LANDMARC fallback (no weight matrix exists).
    """
    min_votes = est.config.min_votes
    if reading.masked:
        reading = est.quorum.apply(reading).reading
        if min_votes is not None:
            min_votes = min(min_votes, reading.n_readers)
    virtual = est.interpolate_reading(reading)
    deviations = rssi_deviations(virtual, reading.tracking_rssi)
    threshold = est.select_threshold(deviations)
    maps = build_proximity_maps(deviations, threshold)
    selected = eliminate(maps, min_votes=min_votes)
    if not selected.any():
        if est.config.empty_fallback != "relax":
            return None, {}
        threshold = minimal_feasible_threshold(
            deviations, min_cells=est.config.min_cells
        )
        maps = build_proximity_maps(deviations, threshold)
        selected = eliminate(maps, min_votes=min_votes)
    w1 = compute_w1(
        deviations,
        selected,
        mode=est.config.w1_mode,
        virtual_rssi=virtual if est.config.w1_mode == "paper-literal" else None,
    )
    w2 = (
        compute_w2(selected, connectivity=est.config.connectivity)
        if est.config.use_w2
        else None
    )
    weights = combine_weights(w1, w2)
    digest = hashlib.sha256(np.ascontiguousarray(weights).tobytes()).hexdigest()
    return digest, {"weights_threshold_db_hex": _hex(threshold)}


def _trace_entries(est: VIREEstimator, labels, positions, readings) -> list:
    entries = []
    for label, true_pos, reading in zip(labels, positions, readings):
        entry: dict = {"label": int(label), "true_position": list(true_pos)}
        try:
            result = est.estimate(reading)
        except ReproError as exc:
            entry["error"] = type(exc).__name__
            entry["message"] = str(exc)
            entries.append(entry)
            continue
        diag = result.diagnostics
        entry.update(
            position_hex=[_hex(result.position[0]), _hex(result.position[1])],
            threshold_db_hex=_hex(diag["threshold_db"]),
            n_selected=int(diag["n_selected"]),
            map_areas=[int(a) for a in diag.get("map_areas", [])]
            if diag.get("map_areas") is not None
            else None,
            fallback=diag.get("fallback"),
        )
        digest, extra = trace_weights(est, reading)
        entry["weights_sha256"] = digest
        entry.update(extra)
        entries.append(entry)
    return entries


def build_paper_trace() -> dict:
    labels, positions, readings = paper_readings()
    est = paper_estimator()
    return {
        "scenario": "paper-config: clean Env3, trial 0, "
        "VIREConfig(target_total_tags=900)",
        "seed": PAPER_SEED,
        "tags": _trace_entries(est, labels, positions, readings),
    }


def build_masked_trace() -> dict:
    labels, positions, readings = masked_readings()
    est = paper_estimator()
    return {
        "scenario": "masked-reading: paper readings with deterministic NaN "
        f"holes (mask seed {MASK_SEED}), quorum + imputation on the path",
        "seed": PAPER_SEED,
        "mask_seed": MASK_SEED,
        "tags": _trace_entries(est, labels, positions, readings),
    }


def run_chaos_session(tracer=None):
    """The frozen chaotic service session behind two golden fixtures.

    ``chaos_preset.json`` pins its results bit-exactly;
    ``trace_serve.json`` pins the logical span forest of the same run
    (``tracer`` must then be a :class:`repro.obs.Tracer`). The tracer
    must never perturb the answers — ``tests/test_golden_traces.py``
    asserts exactly that by comparing the traced run's results against
    the untraced fixture.
    """
    from repro.faults import chaos_preset
    from repro.hardware.deployment import build_paper_deployment
    from repro.hardware.middleware import SmoothingSpec
    from repro.service import LocalizationService, ServiceConfig

    from tests.conftest import make_clean_environment

    tracking = {"asset": (1.3, 1.7), "cart": (2.4, 0.9)}

    class _Scenario:
        name = "golden-chaos"
        tracking_tags = tracking

    class _Service(LocalizationService):
        def build_deployment(self, scenario):  # noqa: ARG002 - fixed world
            return build_paper_deployment(
                make_clean_environment(),
                tracking_tags={f"tag-{k}": p for k, p in tracking.items()},
                seed=CHAOS_SEED,
                smoothing=SmoothingSpec(max_age_s=6.0),
            )

    config = ServiceConfig(
        query_interval_s=1.0,
        request_deadline_s=None,
        breaker_recovery_timeout_s=8.0,
        vire=VIREConfig(subdivisions=5),
    )
    plan = chaos_preset("moderate", seed=CHAOS_SEED)
    return _Service(config).run(
        _Scenario(), CHAOS_DURATION_S, fault_plan=plan, tracer=tracer
    )


def chaos_result_docs(report) -> list:
    """The bit-exact result documents stored in ``chaos_preset.json``."""
    return [
        {
            "tag_id": r.tag_id,
            "position_hex": [_hex(r.position[0]), _hex(r.position[1])],
            "estimator": r.estimator,
            "degraded": bool(r.degraded),
            "reason": r.reason,
        }
        for r in report.results
    ]


def build_chaos_trace() -> dict:
    """A short chaotic service session, positions pinned bit-exactly."""
    report = run_chaos_session()
    return {
        "scenario": "chaos-preset: moderate faults, clean-room paper "
        f"deployment, {CHAOS_DURATION_S}s session (seed {CHAOS_SEED})",
        "seed": CHAOS_SEED,
        "duration_s": CHAOS_DURATION_S,
        "results": chaos_result_docs(report),
    }


def build_trace_serve() -> dict:
    """Logical span forest of the chaotic serve session.

    Pins every control-flow decision the service makes: batch flush
    triggers, ladder level/reason/estimator per serve, degradation
    spans. Wall-clock annotations are
    stripped (:meth:`repro.obs.Tracer.logical_documents`), so the
    fixture is a pure function of the seed.
    """
    from repro.obs import Tracer

    tracer = Tracer()
    run_chaos_session(tracer=tracer)
    return {
        "scenario": "trace-serve: logical span forest of the chaos-preset "
        f"session (seed {CHAOS_SEED}) — ladder and batch decisions",
        "seed": CHAOS_SEED,
        "duration_s": CHAOS_DURATION_S,
        "spans": tracer.logical_documents(),
    }


def build_trace_fig6() -> dict:
    """Logical ``vire.estimate`` span trees for the Fig. 6 scenario.

    One frozen trial per environment, all nine tracking tags, the
    Fig. 6 operating point (``default_vire_config``): thresholds,
    selected-cell counts and relax fallbacks are pinned per tag per
    environment without the cost of the full 20-trial figure run.
    """
    from repro.experiments.figures import default_vire_config
    from repro.geometry.placement import paper_testbed_grid
    from repro.obs import Tracer, use_tracer
    from repro.rf.environments import env1, env2

    grid = paper_testbed_grid()
    environments = {}
    for factory in (env1, env2, env3):
        env = factory()
        scenario = paper_scenario(env, n_trials=1, base_seed=PAPER_SEED)
        sampler = TrialSampler(
            scenario.environment,
            scenario.grid,
            seed=scenario.trial_seed(0),
            measurement=scenario.measurement,
        )
        est = VIREEstimator(grid, default_vire_config())
        tracer = Tracer()
        with use_tracer(tracer):
            for label in scenario.tracking_tags:
                reading = sampler.reading_for(scenario.tracking_tags[label])
                try:
                    est.estimate(reading)
                except ReproError:
                    pass  # the span still records the error class
        environments[env.name] = tracer.logical_documents()
    return {
        "scenario": "trace-fig6: logical vire.estimate span trees, one "
        f"frozen trial (seed {PAPER_SEED}) per environment",
        "seed": PAPER_SEED,
        "environments": environments,
    }


LOADTEST_SEED = 17
LOADTEST_DURATION_S = 5.0


def loadtest_sweep_profiles():
    """The two frozen sweep points behind ``report_capacity.json``."""
    from repro.loadtest import LoadProfile

    base = LoadProfile(
        name="golden", process="burst", environment="Env1",
        duration_s=LOADTEST_DURATION_S, seed=LOADTEST_SEED,
    )
    return (
        base.with_(name="golden-x1", rate_per_s=4.0),
        base.with_(name="golden-x2", rate_per_s=8.0),
    )


def build_report_schedule() -> dict:
    """Canonical arrival schedule of a bursty profile.

    Pins the traffic generator itself: every arrival time (9-decimal
    rounded), zone id and tag label of the derived RNG streams. Any
    change to the thinning loop, the stream derivation keys or the
    label draws shows up as a byte diff here.
    """
    from repro.loadtest import generate_schedule

    profile = loadtest_sweep_profiles()[0].with_(n_zones=2)
    schedule = generate_schedule(profile)
    return {
        "scenario": "report-schedule: canonical burst arrival schedule, "
        f"2 zones (seed {LOADTEST_SEED})",
        "digest_sha256": schedule.digest(),
        "schedule": schedule.canonical_document(),
    }


def build_report_capacity() -> dict:
    """Canonical capacity report of a tiny frozen load sweep.

    Two bursty sweep points through the real single-zone harness (cheap
    ``subdivisions=5`` world), fed to every registered figure builder.
    Wall-clock never enters: the sweep points are witness documents and
    the fit is the pure-Python least-squares solver.
    """
    from repro.analysis.registry import build_capacity_report
    from repro.loadtest import run_load_test
    from repro.service import ServiceConfig

    config = ServiceConfig(vire=VIREConfig(subdivisions=5))
    points = [
        run_load_test(profile, config=config).witness_document()
        for profile in loadtest_sweep_profiles()
    ]
    return {
        "scenario": "report-capacity: figure-registry output over a two-"
        f"point frozen burst sweep (seed {LOADTEST_SEED})",
        "seed": LOADTEST_SEED,
        "report": build_capacity_report(
            points, meta={"seed": LOADTEST_SEED}
        ),
    }


ZONE_CHAOS_PRESETS = ("crash", "hang", "partition", "brownout")


def zone_chaos_argv(preset: str) -> list[str]:
    """The ``repro chaos`` command line pinned for one zone preset."""
    return [
        "chaos", "--env", "Env1", "--zones", "2", "--duration", "10",
        "--preset", "none", "--zone-preset", preset, "--zone-id", "z0",
        "--zone-fault-start", "5", "--json",
    ]


def run_zone_chaos_cli(preset: str) -> str:
    """Stdout of ``repro chaos`` for one zone preset, as printed."""
    import contextlib
    import io

    from repro.cli import main as cli_main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(zone_chaos_argv(preset))
    if code != 0:
        raise RuntimeError(f"chaos --zone-preset {preset} exited {code}")
    return out.getvalue()


def build_zone_chaos_presets() -> dict:
    """The 2-zone chaos witness under every zone-scoped fault preset.

    Each entry is the parsed ``--json`` document of one CLI run; the
    test compares the CLI's stdout to this document re-serialized the
    way the CLI prints it, so the check is byte-exact.
    """
    return {
        "scenario": "zone-chaos-presets: chaos --zones 2 --json, record "
        "preset none, one zone-scoped fault on z0 from t=5s",
        "argv": {p: zone_chaos_argv(p) for p in ZONE_CHAOS_PRESETS},
        "presets": {
            p: json.loads(run_zone_chaos_cli(p)) for p in ZONE_CHAOS_PRESETS
        },
    }


BUILDERS = {
    "paper_config.json": build_paper_trace,
    "masked_reading.json": build_masked_trace,
    "chaos_preset.json": build_chaos_trace,
    "trace_serve.json": build_trace_serve,
    "trace_fig6.json": build_trace_fig6,
    "report_schedule.json": build_report_schedule,
    "report_capacity.json": build_report_capacity,
    "zone_chaos_presets.json": build_zone_chaos_presets,
}


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, builder in BUILDERS.items():
        path = GOLDEN_DIR / name
        trace = builder()
        path.write_text(json.dumps(trace, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
