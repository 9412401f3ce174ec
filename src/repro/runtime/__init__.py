"""Supervised execution + crash-safe checkpointing (``repro.runtime``).

The execution substrate under the sweeps and the streaming service,
hardened the way long-lived fingerprint-serving systems are:

* :mod:`~repro.runtime.policy` — :class:`RuntimePolicy` (retry budget
  and serial fallback of the process pool, threaded through
  :class:`~repro.engine.config.EngineConfig`) and :class:`RetryPolicy`,
  the pool's per-task deadline/retry/backoff budget.
* :mod:`~repro.runtime.supervisor` — :class:`SupervisedPool`, the one
  process-pool route (:func:`repro.engine.sharding.map_shards`):
  per-task deadlines, bounded retries with exponential backoff,
  automatic pool respawn on worker death, and a deterministic serial
  in-process fallback. Crashes degrade throughput, never correctness.
  :func:`run_shard_with_salvage` is its in-process counterpart on the
  serving path: a failing engine pass is salvaged item by item.
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
from .policy import RetryPolicy, RuntimePolicy
from .supervisor import SupervisedPool, run_shard_with_salvage, supervised_map

__all__ = [
    "FORMAT_VERSION",
    "CheckpointState",
    "CheckpointWriter",
    "RetryPolicy",
    "RuntimePolicy",
    "SupervisedPool",
    "load_checkpoint",
    "run_shard_with_salvage",
    "supervised_map",
]
