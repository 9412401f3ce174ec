"""The Prometheus exposition contract of two seeded sessions.

Two sessions are pinned against ``tests/exposition_contract.json``:

* ``session`` — an Env1 :class:`LocalizationService` run under the
  ``severe`` chaos preset with the calibration loop on (breakers open,
  the corrector quarantines, every fault counter moves);
* ``zones`` — a 2-zone :class:`ZoneGateway` run with admission control
  shedding queries.

For each, the set of ``(name, TYPE, HELP)`` families and every sample
that is not wall-clock are pinned. Wall-clock samples are the buckets
and sums of the ``*_latency_seconds`` histograms; their ``_count`` is
deterministic and stays pinned.

The ``service_frames_*`` counters read the readers' own frame counts
when they are rendered, so they count frames received after the last
serving instant too. Their families are pinned; their samples are
checked for consistency (the total is the sum of the per-reader
counts), not against fixed values.

Regenerate (only when a metric is meant to change, and say why)::

    PYTHONPATH=src python -m tests.test_exposition_contract
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.calibration import CalibrationPolicy
from repro.faults import chaos_preset
from repro.service import LocalizationService, ServiceConfig
from repro.zones import ZoneGateway, scaled_site_plan
from repro.zones.failover import AdmissionPolicy

CONTRACT = Path(__file__).parent / "exposition_contract.json"


def _session_exposition() -> str:
    service = LocalizationService(
        ServiceConfig(calibration=CalibrationPolicy())
    )
    report = service.run("Env1", 60.0, fault_plan=chaos_preset("severe"))
    return report.render_prometheus()


def _zones_exposition() -> str:
    gateway = ZoneGateway(
        scaled_site_plan("Env1", 2, seed=0),
        ServiceConfig(),
        admission=AdmissionPolicy(rate_per_s=2.0, burst=4),
    )
    return gateway.run(10.0).render_prometheus()


SESSIONS = {"session": _session_exposition, "zones": _zones_exposition}


#: A frame counter: a registry's total, or one reader's count.
FRAMES = re.compile(
    r"^(?P<registry>.*)_service_frames_(?P<kind>received|dropped)_"
    r"(?:(?P<reader>.+)_)?total$"
)


def parse_exposition(text: str) -> dict:
    """``{"families": [[name, type, help], ...], "samples": {...}}``.

    ``samples`` holds every sample but the wall-clock and frame ones.
    The frame counters are checked here instead: in each registry, each
    total equals the sum of its per-reader counts.
    """
    helps: dict[str, str] = {}
    kinds: dict[str, str] = {}
    samples: dict[str, str] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            helps[name] = help_text
        elif line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            assert name not in kinds, f"duplicate # TYPE for {name}"
            kinds[name] = kind
        else:
            sample, _, value = line.rpartition(" ")
            assert sample not in samples, f"duplicate sample {sample}"
            samples[sample] = value
    wall = tuple(
        f"{name}{suffix}"
        for name, kind in kinds.items()
        if kind == "histogram" and name.endswith("_latency_seconds")
        for suffix in ("_bucket", "_sum")
    )
    pinned: dict[str, str] = {}
    totals: dict[tuple[str, str], int] = {}
    per_reader: dict[tuple[str, str], int] = {}
    for sample, value in sorted(samples.items()):
        frames = FRAMES.match(sample)
        if frames is None:
            if not sample.startswith(wall):
                pinned[sample] = value
            continue
        key = (frames["registry"], frames["kind"])
        into = totals if frames["reader"] is None else per_reader
        into[key] = into.get(key, 0) + int(value)
    assert totals and totals == per_reader, (totals, per_reader)
    return {
        "families": sorted(
            [name, kind, helps.get(name, "")] for name, kind in kinds.items()
        ),
        "samples": pinned,
    }


@pytest.fixture(scope="module")
def contract() -> dict:
    return json.loads(CONTRACT.read_text())


@pytest.mark.parametrize("session", sorted(SESSIONS))
def test_exposition_matches_the_contract(session, contract):
    got = parse_exposition(SESSIONS[session]())
    want = contract[session]
    assert [tuple(f) for f in got["families"]] == [
        tuple(f) for f in want["families"]
    ]
    assert got["samples"] == want["samples"]


def test_the_contract_exercises_every_component(contract):
    """A pinned zero proves nothing: the sessions must move the counters."""
    session = contract["session"]["samples"]
    for name in (
        "repro_service_breaker_transitions_total",
        "repro_calibration_corrected_readings_total",
        "repro_calibration_quarantine_transitions_total",
        "repro_faults_records_dropped_total",
        "repro_faults_records_delayed_total",
        "repro_service_degraded_partial_readers_total",
    ):
        assert float(session[name]) > 0, name
    zones = contract["zones"]["samples"]
    for zone in ("z0", "z1"):
        for name in ("admitted", "shed"):
            key = f"repro_zone_{zone}_admission_requests_{name}_total"
            assert float(zones[key]) > 0, key


if __name__ == "__main__":
    CONTRACT.write_text(
        json.dumps(
            {name: parse_exposition(run()) for name, run in SESSIONS.items()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {CONTRACT}")
