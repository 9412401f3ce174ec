"""Self-test of the benchmark's own gates, on tiny runs of every workload.

    python3 perfbench/selftest.py

1. Every named metric is emitted with its unit, and ``BENCHMARK.json``
   names exactly these workloads and metrics.
   A set-up-only pass stops every session at its last arming.
2. The correctness check accepts a repetition's answers, accepts the
   traced repetition's answers (timers do not perturb them), and
   rejects a copy with one bit of one answer's position flipped.
3. Leaving one layer unwrapped (the ``session`` driver of site-burst)
   raises ``unattributed_share``.

Prints one line per check and exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile

import run

SCALE = 0.05


def fail(message: str) -> None:
    raise SystemExit(f"FAIL: {message}")


def tiny_run(workload, tmp: str, skip: frozenset[str] = frozenset()):
    """One untraced and one traced repetition at :data:`SCALE`.

    Returns ``(untraced, traced, outs, traced_outs, setups)`` in the
    shapes :func:`run.end_to_end` and :func:`run.per_layer` take;
    ``setups`` holds one set-up-only pass.
    """
    from layers import LayerTracer, Patcher, ServeProbe

    sessions = workload(0, SCALE, tmp)
    probe = ServeProbe()
    with Patcher() as patcher:
        probe.install(patcher)
        rep, outs = run.run_rep(sessions, probe)
        setups = [run.setup_pass(sessions, probe)]
        tracer = LayerTracer(skip)
        probe.gauge = False
        with Patcher() as layer_patcher:
            tracer.install(layer_patcher)
            traced_rep, traced_outs = run.run_rep(sessions, probe)
    traced = [(traced_rep, dict(tracer.self_s), tracer.counters())]
    return [rep], traced, outs, traced_outs, setups


def check_metrics(name: str, metrics: dict, units: dict) -> None:
    if set(metrics) != set(units):
        fail(f"{name}: metrics {sorted(set(metrics) ^ set(units))} differ")
    for key, value in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name}: {key} = {value!r} is not a finite number")


def check_spec(workloads) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(workloads):
        fail("BENCHMARK.json workloads differ from workloads.py")
    for section, units in (
        ("end_to_end", run.END_TO_END),
        ("per_layer", run.per_layer_units()),
    ):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        if declared != units:
            fail(f"BENCHMARK.json {section} differs from what run.py emits")
    print("ok  BENCHMARK.json names every emitted metric with its unit")


def main() -> int:
    run.load_program()
    from workloads import WORKLOADS, digest, flip_one_bit, violations

    check_spec(WORKLOADS)
    run.TMP_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=run.TMP_DIR)
    try:
        for name, workload in WORKLOADS.items():
            untraced, traced, outs, traced_outs, setups = tiny_run(
                workload, tmp
            )
            check_metrics(
                name, run.end_to_end(untraced, setups), run.END_TO_END
            )
            check_metrics(
                name, run.per_layer(traced, untraced), run.per_layer_units()
            )
            print(f"ok  {name}: every metric emitted with its unit")

            reference = digest(outs)
            if violations(outs, reference):
                fail(f"{name}: clean answers rejected: {violations(outs, reference)}")
            if violations(traced_outs, reference):
                fail(f"{name}: the traced run changed the answers")
            if not violations(flip_one_bit(outs), reference):
                fail(f"{name}: a flipped position bit passed the check")
            print(f"ok  {name}: flipped bit caught, traced answers identical")

        burst = WORKLOADS["site-burst"]
        untraced, traced, _, _, _ = tiny_run(burst, tmp)
        full = run.per_layer(traced, untraced)
        untraced, traced, _, _, _ = tiny_run(
            burst, tmp, frozenset({"session"})
        )
        bare = run.per_layer(traced, untraced)
        rise = bare["unattributed_share"] - full["unattributed_share"]
        if rise < 0.5 * full["session.share"]:
            fail(
                f"unwrapping session moved unattributed_share by {rise:.4f}, "
                f"expected about session.share = {full['session.share']:.4f}"
            )
        print(
            f"ok  unwrapping session raises unattributed_share "
            f"{full['unattributed_share']:.4f} -> {bare['unattributed_share']:.4f}"
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            run.TMP_DIR.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
