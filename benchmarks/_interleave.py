"""Interleaved best-of-N wall timing for the overhead gates.

A serving session on the paper testbed lasts tens of milliseconds, so a
few-percent overhead gate compares walls whose run-to-run noise is of
the same size. Two defences, used by ``bench_calibration`` and
``bench_recovery``:

* **Interleaving.** Every round runs each arm once, in an order rotated
  by one per round, so a slow stretch of the machine lands on every arm
  alike instead of on whichever arm ran during it.
* **A recorded noise floor.** One arm is the bare session timed twice
  under two names. The two best-of-N walls differ only by noise; their
  relative gap is the smallest overhead the gate can resolve. A gate
  whose floor exceeds its ceiling measures noise, and must fail.
"""

from __future__ import annotations

import time
from typing import Any, Callable


def interleaved_best(
    arms: dict[str, Callable[[], Any]], rounds: int
) -> tuple[dict[str, float], dict[str, Any]]:
    """Best wall per arm over ``rounds`` rotated rounds, plus each arm's
    last return value."""
    names = list(arms)
    best = {name: float("inf") for name in names}
    last: dict[str, Any] = {}
    for r in range(rounds):
        for i in range(len(names)):
            name = names[(r + i) % len(names)]
            t0 = time.perf_counter()
            last[name] = arms[name]()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best, last


def noise_floor(bare_a: float, bare_b: float) -> float:
    """Relative gap between two best-of-N walls of the same session."""
    return abs(bare_b / bare_a - 1.0)
