"""The performance ledger stays attached to the program.

``perfbench/layers.py`` times each layer by wrapping named callables of
``src/`` (its ``LAYERS`` table). A rename or a move out from under one
of those names does not crash an untraced run: the ledger silently
attributes the work to a neighbouring layer, or to nothing. These tests
catch that in tier 1:

* every ``LAYERS`` entry resolves against the program;
* a tiny traced zones-chaos repetition records calls in the record-path
  layers (``rf``, ``hardware.simulator``, ``faults``);
* each check fails when its target is taken away.

``perfbench/`` is only imported here, never changed.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

layers = importlib.import_module("layers")
workloads = importlib.import_module("workloads")

#: The layers the record path runs through on every beacon.
RECORD_PATH = ("rf", "hardware.simulator", "faults")
SCALE = 0.05


def unresolved_layers() -> list[tuple[str, str, str]]:
    """Every ``(layer, module, path)`` of ``LAYERS`` that names nothing."""
    missing = []
    for layer, targets in layers.LAYERS.items():
        for module_name, path in targets:
            owner = importlib.import_module(module_name)
            for name in path.split("."):
                owner = getattr(owner, name, None)
                if owner is None:
                    missing.append((layer, module_name, path))
                    break
    return missing


def traced_calls(tmp_path, skip: frozenset[str] = frozenset()) -> dict[str, int]:
    """Calls per layer over one tiny traced zones-chaos repetition."""
    sessions = workloads.WORKLOADS["zones-chaos"](0, SCALE, str(tmp_path))
    tracer = layers.LayerTracer(skip)
    with layers.Patcher() as patcher:
        tracer.install(patcher)
        for session in sessions:
            session.collect(session.run())
    return dict(tracer.calls)


def silent_layers(calls: dict[str, int]) -> list[str]:
    return [layer for layer in RECORD_PATH if calls.get(layer, 0) == 0]


def test_every_ledger_entry_resolves():
    assert unresolved_layers() == []


def test_a_missing_attribute_is_reported(monkeypatch):
    from repro.faults.injector import FaultInjector

    monkeypatch.delattr(FaultInjector, "release_due")
    assert unresolved_layers() == [
        ("faults", "repro.faults.injector", "FaultInjector.release_due")
    ]


def test_record_path_layers_record_calls(tmp_path):
    assert silent_layers(traced_calls(tmp_path)) == []


def test_an_unwrapped_layer_is_reported(tmp_path):
    calls = traced_calls(tmp_path, skip=frozenset({"faults"}))
    assert silent_layers(calls) == ["faults"]
