"""Deterministic random-number stream management.

Reproducibility discipline: every stochastic component of the simulator
(shadowing fields, fading draws, beacon jitter, interference, ...) draws
from its own named stream derived from a single experiment seed. Streams
are derived with :func:`numpy.random.SeedSequence` and string keys, so

* the same ``(seed, key)`` pair always yields the same stream,
* adding a new consumer never perturbs existing streams, and
* each trial of a sweep derives its own disjoint stream.
"""

from __future__ import annotations

import zlib
import numpy as np

__all__ = ["derive_seed", "derive_rng"]


def _key_to_int(key: str | int) -> int:
    """Map a stream key to a stable 32-bit integer.

    String keys are hashed with CRC32 (stable across processes and Python
    versions, unlike the built-in ``hash``).
    """
    if isinstance(key, int):
        return key & 0xFFFFFFFF
    return zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF


def derive_seed(seed: int, *keys: str | int) -> np.random.SeedSequence:
    """Derive a :class:`~numpy.random.SeedSequence` for a named sub-stream.

    Parameters
    ----------
    seed:
        The experiment master seed.
    keys:
        Any number of string/int path components naming the consumer,
        e.g. ``derive_seed(7, "shadowing", reader_index)``.
    """
    return np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *map(_key_to_int, keys)])


def derive_rng(seed: int, *keys: str | int) -> np.random.Generator:
    """Return a :class:`~numpy.random.Generator` for a named sub-stream."""
    return np.random.default_rng(derive_seed(seed, *keys))
