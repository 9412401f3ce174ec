"""Crash-recovery economics: checkpoint overhead and time-to-recover.

Three questions, tied to the PR's acceptance bar (docs/RUNTIME.md):

1. **Overhead** — attaching a JSONL write-ahead checkpoint to a serve
   session must cost <= 5% wall-clock over the bare session (the median
   over interleaved rounds of the checkpointed session's wall over the
   bare one's in the same round, ``_interleave.py``), and the 95%
   interval of that median must lie wholly on one side of the ceiling,
   or the gate has not resolved it.
2. **Recovery** — resuming a session killed halfway must be *bounded*:
   replay (streaming without estimation) plus the remaining live half
   must land within 1.5x of a clean full run. Replay skips the
   estimators, but in this stack streaming itself is the dominant cost,
   so resume is about a rerun's price — what it buys is not speed but
   the already-served answers: no result a consumer witnessed is ever
   recomputed or changed.
3. **Identity** — none of this may change an answer: the bare,
   checkpointed and crash+resumed sessions must produce byte-identical
   determinism witnesses.

Run it via pytest (prints the JSON report)::

    pytest benchmarks/bench_recovery.py -s

or standalone (also writes BENCH_recovery.json)::

    PYTHONPATH=src python benchmarks/bench_recovery.py
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from repro import CrashPoint, ServiceConfig, SimulatedCrash
from repro.service import LocalizationService

try:
    from ._interleave import Gate, interleaved_rounds
    from .conftest import emit
except ImportError:  # standalone: python benchmarks/bench_recovery.py
    from _interleave import Gate, interleaved_rounds

    def emit(title: str, body: str) -> None:
        bar = "=" * 72
        print(f"\n{bar}\n{title}\n{bar}\n{body}\n")

ENV = "Env1"
DURATION_S = 20.0
KILL_AT_S = DURATION_S / 2
#: Interleaved rounds: bare, checkpointed, bare again, crash + resume;
#: the median's 95% interval spans the 22nd to 39th of 60 ratios.
REPEATS = 60
OVERHEAD_CEILING = 0.05
RECOVERY_RATIO_CEILING = 1.5


def _service() -> LocalizationService:
    return LocalizationService(ServiceConfig(query_interval_s=1.0))


def _witness(report) -> str:
    return json.dumps(report.witness_document(), sort_keys=True)


def run_benchmark(workdir: str | None = None, rounds: int = REPEATS) -> dict:
    workdir = workdir or tempfile.mkdtemp(prefix="bench_recovery_")
    ckpt_path = os.path.join(workdir, "session.ckpt")
    crash_path = os.path.join(workdir, "crashed.ckpt")

    def checkpointed():
        if os.path.exists(ckpt_path):
            os.remove(ckpt_path)
        return _service().run(ENV, DURATION_S, checkpoint_path=ckpt_path)

    # Kill the session halfway, then time the resume (each cycle
    # recreates the crash so every resume starts from the same cut).
    crashed_walls: list[float] = []
    resume_walls: list[float] = []

    def crash_then_resume():
        if os.path.exists(crash_path):
            os.remove(crash_path)
        t0 = time.perf_counter()
        _run_until_crash(crash_path)
        crashed_walls.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        report = _service().run(
            ENV, DURATION_S, checkpoint_path=crash_path, resume=True
        )
        resume_walls.append(time.perf_counter() - t0)
        return report

    # 1) + 2) in one interleaved loop. The bare session runs as two
    # arms; the second one's paired overhead is the method's null check.
    timings = interleaved_rounds(
        {
            "bare": lambda: _service().run(ENV, DURATION_S),
            "checkpointed": checkpointed,
            "bare_again": lambda: _service().run(ENV, DURATION_S),
            "crash_then_resume": crash_then_resume,
        },
        rounds,
    )
    # The checkpointed arm is compared with one bare arm, round by round.
    bare_s = timings.best("bare")
    ckpt_s = timings.best("checkpointed")
    gate = Gate.measure(timings, "checkpointed", "bare", OVERHEAD_CEILING)
    ckpt_bytes = os.path.getsize(ckpt_path)
    crashed_s, resume_s = min(crashed_walls), min(resume_walls)
    recovery_ratio = resume_s / bare_s
    reports = timings.last
    bare_report, resumed_report = reports["bare"], reports["crash_then_resume"]

    # 3) The witnesses must agree byte-for-byte.
    witnesses = {
        "bare": _witness(bare_report),
        "bare_again": _witness(reports["bare_again"]),
        "checkpointed": _witness(reports["checkpointed"]),
        "resumed": _witness(resumed_report),
    }
    identical = len(set(witnesses.values())) == 1

    return {
        "env": ENV,
        "duration_s": DURATION_S,
        "kill_at_s": KILL_AT_S,
        "repeats": rounds,
        "results_per_session": len(bare_report.results),
        "timing_s": {
            "bare_best": round(bare_s, 4),
            "bare_again_best": round(timings.best("bare_again"), 4),
            "checkpointed_best": round(ckpt_s, 4),
            "crashed_half_session_best": round(crashed_s, 4),
            "resume_remaining_half_best": round(resume_s, 4),
            "null_overhead": round(timings.overhead("bare_again", "bare"), 4),
            "null_interval": [
                round(x, 4) for x in timings.interval("bare_again", "bare")
            ],
        },
        "checkpoint": {
            "bytes": ckpt_bytes,
            "results_logged": int(
                resumed_report.summary["checkpoint_results_logged"]
            ),
            "snapshots": int(resumed_report.summary["checkpoint_snapshots"]),
            "results_restored": int(
                resumed_report.summary["resume_results_restored"]
            ),
        },
        "acceptance": {
            **gate.acceptance(),
            "recovery_ratio_ceiling": RECOVERY_RATIO_CEILING,
            "recovery_ratio": round(recovery_ratio, 4),
            "recovery_bounded": recovery_ratio <= RECOVERY_RATIO_CEILING,
            "witness_identical": identical,
        },
    }


def _run_until_crash(ckpt_path: str):
    try:
        _service().run(
            ENV, DURATION_S,
            checkpoint_path=ckpt_path,
            crash_point=CrashPoint(at_s=KILL_AT_S),
        )
    except SimulatedCrash:
        return None
    raise AssertionError("crash point never fired")


def test_recovery_benchmark(tmp_path):
    report = run_benchmark(str(tmp_path))
    emit("crash recovery", json.dumps(report, indent=2))
    acc = report["acceptance"]
    assert acc["witness_identical"], (
        "checkpointing or resume changed an answer"
    )
    assert acc["overhead_resolved"], (
        f"checkpoint overhead {acc['overhead']:.1%}, 95% interval "
        f"{acc['overhead_interval']}, straddles the {OVERHEAD_CEILING:.0%} "
        "ceiling: the timing cannot resolve the gate"
    )
    assert acc["overhead_ok"], (
        f"checkpoint overhead {acc['overhead']:.1%} exceeds "
        f"{OVERHEAD_CEILING:.0%}"
    )
    assert acc["recovery_bounded"], (
        f"time-to-recover ratio {acc['recovery_ratio']} exceeds "
        f"{RECOVERY_RATIO_CEILING}x a clean run: {report['timing_s']}"
    )


if __name__ == "__main__":
    out = run_benchmark()
    emit("crash recovery", json.dumps(out, indent=2))
    ok = all(
        out["acceptance"][key]
        for key in (
            "overhead_resolved",
            "overhead_ok",
            "recovery_bounded",
            "witness_identical",
        )
    )
    with open("BENCH_recovery.json", "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print("wrote BENCH_recovery.json")
    raise SystemExit(0 if ok else 1)
