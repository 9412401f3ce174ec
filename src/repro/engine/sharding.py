"""Process sharding for multi-snapshot engine work.

Multi-snapshot workloads (Monte-Carlo sweeps, replayed traces) are
embarrassingly parallel across snapshots but benefit from *batching
within* a worker: each shard of snapshots is handed to the worker as one
unit so the engine's vectorized kernels amortize over the whole shard.
:func:`map_shards` is the thin dispatcher behind
:class:`~repro.engine.config.EngineConfig` — serial when ``n_jobs`` is
``None``/1 (the reproducible default), a supervised process pool
otherwise. Results come back flattened in input order either way, so
parallel runs are bit-identical to serial ones.

Measure before parallelizing: a trial here is a few milliseconds of
vectorized numpy, so the pool only pays off for large sweeps (Fig. 7's
density sweep); hence opt-in rather than default.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

from ..exceptions import ConfigurationError
from ..obs import current_tracer
from ..runtime.supervisor import supervised_map
from .config import EngineConfig

T = TypeVar("T")

__all__ = ["compute_chunksize", "compute_shards", "map_shards", "resolve_n_jobs"]


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` request.

    ``None`` or 1 → serial; 0 or negative → one worker per CPU.
    """
    if n_jobs is None:
        return 1
    if n_jobs == 1:
        return 1
    if n_jobs <= 0:
        return max(os.cpu_count() or 1, 1)
    return int(n_jobs)


def compute_chunksize(n_items: int, n_workers: int, *, per_worker: int = 4) -> int:
    """Items per dispatched chunk when ``n_items`` fan out to a pool.

    One item per message pays one pickle/unpickle round-trip each; on a
    1000-trial density sweep the IPC overhead dominates the
    few-millisecond trials. Aim for about ``per_worker`` chunks per
    worker — enough slack for dynamic load balancing across unevenly
    slow trials, while amortizing IPC over
    ``n_items / (n_workers * per_worker)`` items per message.
    """
    if n_items <= 0 or n_workers <= 0:
        return 1
    return max(1, n_items // (n_workers * per_worker))


def compute_shards(
    n_items: int, config: EngineConfig | None = None
) -> list[range]:
    """Partition ``range(n_items)`` into contiguous shards.

    Shard size follows ``config.shard_size`` when given; otherwise
    :func:`compute_chunksize` picks one that keeps
    roughly four shards in flight per worker (serial runs get a single
    shard — no reason to split work nobody will overlap).
    """
    if isinstance(n_items, bool) or not isinstance(n_items, int):
        # bool passes a bare isinstance(…, int) check; reject explicitly
        # (compute_shards(True) silently meaning "one item" hid bugs).
        raise ConfigurationError(
            f"n_items must be an integer (bool not allowed), got {n_items!r}"
        )
    if n_items < 0:
        raise ConfigurationError(f"n_items must be >= 0, got {n_items}")
    if n_items == 0:
        return []
    config = config or EngineConfig()
    jobs = resolve_n_jobs(config.n_jobs)
    if config.shard_size is not None:
        size = config.shard_size
    elif jobs == 1:
        size = n_items
    else:
        size = compute_chunksize(n_items, min(jobs, n_items))
    return [range(lo, min(lo + size, n_items)) for lo in range(0, n_items, size)]


def map_shards(
    fn: Callable[[Sequence[int]], Sequence[T]],
    n_items: int,
    *,
    config: EngineConfig | None = None,
) -> list[T]:
    """Apply ``fn`` to each shard of indices; flatten in input order.

    ``fn`` receives a contiguous index shard and must return one result
    per index, in shard order. It must be picklable (module-level
    function or :func:`functools.partial` of one) when the config asks
    for more than one worker.

    More than one worker fans the shards out under
    :class:`~repro.runtime.supervisor.SupervisedPool`, driven by
    ``config.runtime``: a worker that dies or blows its deadline costs a
    retry (and ultimately a serial in-process re-execution), never the
    sweep — and the recovered results are bit-identical to a crash-free
    run.
    """
    config = config or EngineConfig()
    shards = compute_shards(n_items, config)
    jobs = resolve_n_jobs(config.n_jobs)
    tracer = current_tracer()
    if jobs == 1 or len(shards) <= 1:
        # Serial path: per-shard spans nest under the dispatch span (the
        # worker-pool path runs fn in other processes, where the ambient
        # tracer of *this* process cannot follow).
        with tracer.span(
            "engine.map_shards", n_items=n_items, n_shards=len(shards),
            mode="serial",
        ):
            out: list[T] = []
            for i, shard in enumerate(shards):
                with tracer.span(
                    "engine.shard", shard=i, size=len(shard)
                ):
                    out.extend(fn(shard))
            return out
    workers = min(jobs, len(shards))
    with tracer.span(
        "engine.map_shards", n_items=n_items, n_shards=len(shards),
        mode="supervised", workers=workers,
    ):
        nested = supervised_map(
            fn, shards, max_workers=workers, policy=config.runtime
        )
        return [item for chunk in nested for item in chunk]
