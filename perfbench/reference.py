"""A short piece of the benchmark's own code that gauges the machine's speed.

On a shared machine the same work runs up to ~70% slower while another
tenant shares the core, and that changes from one millisecond to the
next. ``layers.ServeProbe`` runs :func:`piece_s` right before every
serving call and ``run.py`` runs :func:`warm_piece_s` right before every
session, and ``run.at_reference_speed`` divides each timed stretch of
the program by the piece timed next to it: both ran at the same moment,
on the same
core, so the quotient keeps the cost of the work and drops most of the
slowdown. Timings read as the time on a machine where the piece takes
:data:`REFERENCE_S`.

The piece mixes what the program spends its time on: Python objects and
dicts, numpy element-wise arithmetic on small vectors and small matrix
products. It never calls the program, so a change to the program moves
the scaled times as much as the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

#: The piece's usual fastest time on a 2-vCPU x86-64 VM (Python 3.11,
#: numpy 2.4), right before a serving call.
REFERENCE_S = 0.0003

_rng = np.random.default_rng(0)
_VECTOR = _rng.random(256)
_MATRIX = _rng.random((16, 16))


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


def _piece() -> float:
    table: dict[int, tuple[int, int]] = {}
    acc = 0
    for i in range(500):
        p = _Point(i, i >> 1)
        table[i & 63] = (p.x, p.y)
        acc += len(table) + p.y
    v = _VECTOR
    for _ in range(12):
        v = np.tanh(v * 0.5 + _VECTOR)
    m = _MATRIX
    for _ in range(12):
        m = np.tanh(m @ _MATRIX * 0.01)
    return acc + float(v.sum()) + float(m.sum())


def piece_s() -> float:
    """The wall time of one run of the piece."""
    t0 = time.perf_counter()
    _piece()
    return time.perf_counter() - t0


def warm_piece_s() -> float:
    """The fastest of three runs in a row, for a gauge taken after other
    work (such as a ``gc.collect()``) has left the piece's data cold."""
    return min(piece_s() for _ in range(3))
