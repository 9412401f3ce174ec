"""Configuration of the batch-estimation engine.

:class:`EngineConfig` collects the *throughput* knobs that sit above the
algorithm configuration (:class:`~repro.core.config.VIREConfig` owns the
science; this owns the scheduling): how many worker processes a
multi-snapshot sweep may use and how many snapshots ride in one shard.
The engine's numerical behaviour is **not** configurable — batch results
are bitwise identical to the scalar path by contract, whatever the
scheduling knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..exceptions import ConfigurationError
from ..runtime.policy import RuntimePolicy

__all__ = ["EngineConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """Scheduling knobs of :mod:`repro.engine`.

    Parameters
    ----------
    n_jobs:
        Worker processes for multi-snapshot work (sweeps, Monte-Carlo
        trials). ``None`` or 1 = serial (the reproducible default);
        0 or negative = one worker per CPU — the same convention as
        :func:`repro.utils.parallel.resolve_n_jobs`.
    shard_size:
        Snapshots (trials) per dispatched shard when ``n_jobs != 1``.
        ``None`` lets :func:`repro.utils.parallel.compute_chunksize`
        pick a size that amortizes IPC while keeping the pool balanced.
    runtime:
        Optional :class:`~repro.runtime.policy.RuntimePolicy`. With
        ``supervised=True`` the process fan-out runs under
        :class:`~repro.runtime.supervisor.SupervisedPool` (deadlines,
        retries, pool respawn, serial fallback) — results stay bitwise
        identical; only failure handling changes. ``None`` (default)
        keeps the bare executor.
    """

    n_jobs: int | None = None
    shard_size: int | None = None
    runtime: RuntimePolicy | None = None

    def __post_init__(self) -> None:
        if self.shard_size is not None and self.shard_size < 1:
            raise ConfigurationError(
                f"shard_size must be >= 1 or None, got {self.shard_size}"
            )
        if self.runtime is not None and not isinstance(
            self.runtime, RuntimePolicy
        ):
            raise ConfigurationError(
                f"runtime must be a RuntimePolicy or None, "
                f"got {type(self.runtime).__name__}"
            )

    def with_(self, **changes) -> "EngineConfig":
        """Return a modified copy (thin wrapper over dataclasses.replace)."""
        return replace(self, **changes)
