"""Serving-path salvage + crash-safe checkpointing (``repro.runtime``).

* :mod:`~repro.runtime.supervisor` — :func:`run_shard_with_salvage`:
  a failing engine pass on the serving path is salvaged item by item,
  so one poisoned input degrades one answer, never the micro-batch.
  Zones are supervised separately, by
  :class:`~repro.zones.failover.ZoneChannel`.
* :mod:`~repro.runtime.checkpoint` — append-only JSONL write-ahead
  checkpoints for streaming sessions, with the determinism witness: a
  session killed mid-run and resumed from its checkpoint reports
  byte-identically to the uninterrupted run.

Layering: ``runtime`` sits beside ``utils`` and below ``engine`` and
``service``; it imports nothing above ``utils``.
"""

from .checkpoint import (
    FORMAT_VERSION,
    CheckpointState,
    CheckpointWriter,
    load_checkpoint,
)
from .supervisor import run_shard_with_salvage

__all__ = [
    "FORMAT_VERSION",
    "CheckpointState",
    "CheckpointWriter",
    "load_checkpoint",
    "run_shard_with_salvage",
]
