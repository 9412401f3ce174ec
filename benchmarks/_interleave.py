"""Interleaved, paired wall timing for the overhead and speedup gates.

A serving session on the paper testbed lasts a few tens of milliseconds,
so a few-percent overhead gate compares walls whose run-to-run noise is
of the same size: on a shared machine the same code runs up to ~70%
slower while another tenant shares the core, and that changes within
milliseconds. Three defences, used by ``bench_calibration``,
``bench_recovery`` and ``bench_obs_overhead`` (an overhead under a
ceiling, :class:`Gate`) and by ``bench_engine_batch`` (a speedup over a
floor, :class:`FloorGate`):

* **Interleaving.** Every round runs each arm once, in an order rotated
  by one per round, so a slow stretch of the machine lands on every arm
  alike instead of on whichever arm ran during it.
* **Paired rounds.** An arm's overhead is the median, over rounds, of
  its wall over the base arm's wall *of the same round*: the two ran a
  fraction of a second apart. The median of many such ratios moves far
  less than the ratio of two best-of-N walls, whose minima each come
  from whichever round the machine happened to be fastest in.
* **A confidence interval, not a point.** The rounds' ratios are a
  sample, and their median is an estimate. A distribution-free 95%
  interval for it comes from two order statistics of the sorted ratios
  (the binomial argument of the sign test). A gate is *resolved* only
  when that interval lies wholly on one side of its bound; an estimate
  whose interval straddles it says nothing either way, and the gate
  must fail. The interval's half-width is the noise floor: the smallest
  difference from the bound the timing can resolve.

One arm is the bare session timed twice under two names. Its paired
overhead is zero but for noise, and its interval must contain zero; it
is reported as a check of the method, not used by any gate.

A speed gauge timed before and after each session (the idea of
``perfbench/reference.py``, which gauges every serving call) was tried
and dropped: a session outlasts the machine's slow spells, so dividing
it by a 0.3 ms piece timed next to it added that piece's own noise.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Two-sided confidence of :meth:`Timings.interval`.
CONFIDENCE = 0.95


def median_rank_bounds(
    n: int, confidence: float = CONFIDENCE
) -> tuple[int, int] | None:
    """0-based ranks ``(lo, hi)`` of the order statistics that bound a
    ``confidence`` interval for the median of ``n`` samples, or ``None``
    when ``n`` is too small for any interval to reach it.

    The median lies below the ``(l+1)``-th smallest sample unless at
    least ``n - l`` samples exceed it, which happens with probability
    ``P(Binomial(n, 1/2) <= l)``; ``l`` is the largest rank for which
    that tail, doubled, stays within ``1 - confidence``.
    """
    alpha = (1.0 - confidence) / 2.0
    tail = 0.0
    rank = -1
    for k in range(n):
        tail += math.comb(n, k) / 2.0**n
        if tail > alpha:
            break
        rank = k
    if rank < 0:
        return None
    return rank, n - 1 - rank


def median_interval(values: list[float]) -> tuple[float, float, float]:
    """The median of ``values`` and a :data:`CONFIDENCE` interval for it
    from two of their order statistics; unbounded when there are too
    few values for one."""
    ordered = sorted(values)
    bounds = median_rank_bounds(len(ordered))
    if bounds is None:
        return statistics.median(ordered), -math.inf, math.inf
    return statistics.median(ordered), ordered[bounds[0]], ordered[bounds[1]]


@dataclass
class Timings:
    """Per arm, the wall of each round's session in seconds, and the
    arm's last return value."""

    walls: dict[str, list[float]] = field(default_factory=dict)
    last: dict[str, Any] = field(default_factory=dict)

    def best(self, arm: str) -> float:
        """The arm's fastest wall."""
        return min(self.walls[arm])

    def _ratios(self, arm: str, base: str) -> list[float]:
        return [a / b - 1.0 for a, b in zip(self.walls[arm], self.walls[base])]

    def overhead(self, arm: str, base: str) -> float:
        """Median over rounds of ``arm``'s wall over ``base``'s, minus one."""
        return statistics.median(self._ratios(arm, base))

    def interval(self, arm: str, base: str) -> tuple[float, float]:
        """A :data:`CONFIDENCE` interval for :meth:`overhead` (see
        :func:`median_interval`)."""
        _, low, high = median_interval(self._ratios(arm, base))
        return low, high

    def speedups(self, slow: str, fast: str) -> list[float]:
        """Per round, ``slow``'s wall over ``fast``'s."""
        return [s / f for s, f in zip(self.walls[slow], self.walls[fast])]


@dataclass(frozen=True)
class Gate:
    """An overhead measured against a ceiling, with its interval."""

    ceiling: float
    overhead: float
    low: float
    high: float

    @classmethod
    def measure(
        cls, timings: Timings, arm: str, base: str, ceiling: float
    ) -> "Gate":
        return cls(ceiling, timings.overhead(arm, base), *timings.interval(arm, base))

    @property
    def noise_floor(self) -> float:
        """Half the interval's width."""
        return (self.high - self.low) / 2.0

    @property
    def resolved(self) -> bool:
        """The interval lies wholly at or below the ceiling, or wholly
        above it."""
        return self.high <= self.ceiling or self.low > self.ceiling

    @property
    def ok(self) -> bool:
        """The median overhead is within the ceiling."""
        return self.overhead <= self.ceiling

    def acceptance(self) -> dict[str, Any]:
        """The gate's fields of a benchmark's ``acceptance`` block."""
        return {
            "overhead_ceiling": self.ceiling,
            "overhead_method": (
                "median of paired per-round wall ratios, with a "
                f"{CONFIDENCE:.0%} order-statistic interval"
            ),
            "overhead": round(self.overhead, 4),
            "overhead_interval": [round(self.low, 4), round(self.high, 4)],
            "overhead_ok": self.ok,
            "noise_floor": round(self.noise_floor, 4),
            "overhead_resolved": self.resolved,
        }


@dataclass(frozen=True)
class FloorGate:
    """A paired speedup measured against a floor, with its interval.

    The gate passes only when the whole interval lies at or above the
    floor: a median above it whose interval reaches below has not shown
    the speedup.
    """

    floor: float
    speedup: float
    low: float
    high: float

    @classmethod
    def measure(
        cls, timings: Timings, slow: str, fast: str, floor: float
    ) -> "FloorGate":
        return cls(floor, *median_interval(timings.speedups(slow, fast)))

    @property
    def resolved(self) -> bool:
        """The interval lies wholly at or above the floor, or wholly
        below it."""
        return self.low >= self.floor or self.high < self.floor

    @property
    def ok(self) -> bool:
        """The interval lies wholly at or above the floor."""
        return self.low >= self.floor


def interleaved_rounds(
    arms: dict[str, Callable[[], Any]], rounds: int
) -> Timings:
    """Run every arm once per round, rotating the order by one a round."""
    names = list(arms)
    out = Timings(walls={name: [] for name in names})
    for r in range(rounds):
        for i in range(len(names)):
            name = names[(r + i) % len(names)]
            t0 = time.perf_counter()
            out.last[name] = arms[name]()
            out.walls[name].append(time.perf_counter() - t0)
    return out
