"""SupervisedPool: process-pool execution that survives its workers.

The heavy sweeps fan out over a ``ProcessPoolExecutor``; this module
makes that substrate survivable, and every fan-out goes through it. A
bare pool has three failure modes that abort an entire run:

* a worker dies (OOM-killed, ``os._exit``, segfault) — the executor
  raises :class:`BrokenProcessPool` and *every* outstanding future is
  lost;
* a worker hangs — ``pool.map`` blocks forever, no deadline;
* a transient exception poisons one shard — the whole sweep unwinds.

:class:`SupervisedPool` wraps the executor with per-task deadlines,
bounded retries with exponential backoff, automatic pool respawn on
worker death, and a deterministic serial in-process fallback. Because
every task function here is *pure* (a seeded trial/shard computes from
its inputs alone), re-execution is bit-identical to a clean first run —
supervision changes scheduling, never answers. The golden-trace and
property suites assert exactly that.

Failure classification:

* ``BrokenExecutor`` / ``BrokenProcessPool`` — worker death. Respawn the
  pool, resubmit every unfinished task, charge one attempt to the task
  being awaited.
* ``TimeoutError`` — deadline exceeded. The hung worker cannot be
  cancelled through the executor API, so the pool is killed and
  respawned to reclaim the slot; the task is charged one attempt.
* any other exception — a deterministic application error: the serial
  path would raise the very same thing, so it propagates immediately
  (retrying deterministic failures only wastes time).

Everything is observable: retries, timeouts, respawns and serial
fallbacks are counted through an optional (duck-typed)
:class:`~repro.service.metrics.MetricsRegistry` and logged as structured
``event=...`` lines under the ``repro.runtime`` logger.
"""

from __future__ import annotations

import concurrent.futures
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

from ..exceptions import ConfigurationError, SupervisionError
from ..obs import current_tracer
from ..utils.logging import get_structured_logger, log_event
from .policy import RuntimePolicy

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["SupervisedPool", "supervised_map", "run_shard_with_salvage"]

_LOGGER_NAME = "repro.runtime"

# Timeout classes differ across Python versions (concurrent.futures got
# its own before 3.11 aliased it to the builtin); catch both.
_TIMEOUT_ERRORS = (concurrent.futures.TimeoutError, TimeoutError)


def _worker_init() -> None:
    """Restore default SIGTERM handling inside pool workers.

    Forked workers inherit the parent's signal handlers; the CLI maps
    SIGTERM to ``KeyboardInterrupt`` for graceful shutdown, which — if
    inherited — turns :meth:`SupervisedPool.close`'s ``terminate()``
    into an exception raised inside ``multiprocessing``'s queue lock
    (noisy tracebacks, and a deadlock if the dying worker holds the
    call-queue lock). Workers must die quietly on SIGTERM.
    """

    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except ValueError:  # pragma: no cover - non-main thread
        pass


class SupervisedPool:
    """A process pool with deadlines, retries, respawn and serial fallback.

    Parameters
    ----------
    max_workers:
        Worker processes (must be >= 1).
    policy:
        The :class:`~repro.runtime.policy.RuntimePolicy` driving
        deadlines/retries/backoff/fallback.
    metrics:
        Optional duck-typed metrics registry (anything with
        ``counter(name, help)``); mirrors supervision counters as
        ``runtime_*_total``.
    sleep:
        Injectable backoff sleep (tests pass a recorder and pay no
        wall-clock).

    Use as a context manager; :meth:`close` kills any leftover worker
    (including hung ones) on the way out.
    """

    def __init__(
        self,
        max_workers: int,
        policy: RuntimePolicy | None = None,
        *,
        metrics: Any | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers = int(max_workers)
        self.policy = policy or RuntimePolicy()
        self._sleep = sleep
        self._pool: ProcessPoolExecutor | None = None
        self._logger = get_structured_logger(_LOGGER_NAME)
        self.retries = 0
        self.timeouts = 0
        self.respawns = 0
        self.serial_fallbacks = 0
        self._metrics = metrics
        self._c_retries = self._c_timeouts = None
        self._c_respawns = self._c_fallbacks = self._c_tasks = None
        if metrics is not None:
            self._c_tasks = metrics.counter(
                "runtime_tasks_total", "Tasks dispatched to the supervised pool"
            )
            self._c_retries = metrics.counter(
                "runtime_retries_total", "Supervised-pool task retries"
            )
            self._c_timeouts = metrics.counter(
                "runtime_timeouts_total", "Supervised-pool task deadline hits"
            )
            self._c_respawns = metrics.counter(
                "runtime_pool_respawns_total",
                "Process-pool respawns after worker death or hang",
            )
            self._c_fallbacks = metrics.counter(
                "runtime_serial_fallbacks_total",
                "Tasks recovered by the serial in-process fallback",
            )

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers, initializer=_worker_init
            )
        return self._pool

    def _kill_pool(self) -> None:
        """Tear the executor down hard, terminating hung workers."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in processes:
            if proc.is_alive():
                proc.terminate()
        for proc in processes:
            proc.join(timeout=5.0)

    def close(self) -> None:
        """Release the pool (terminates any leftover/hung worker)."""
        self._kill_pool()

    # -- the supervised map --------------------------------------------------

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every task; results in input order.

        ``fn`` must be picklable and *pure per task* — that purity is
        what makes retries and the serial fallback bit-identical to a
        clean run. Raises :class:`~repro.exceptions.SupervisionError`
        only when a task exhausts retries and the serial fallback is
        disabled; deterministic application errors raised by ``fn``
        propagate unchanged.
        """
        items = list(tasks)
        if not items:
            return []
        if self._c_tasks is not None:
            self._c_tasks.inc(len(items))
        pool = self._ensure_pool()
        futures: dict[int, concurrent.futures.Future] = {
            i: pool.submit(fn, item) for i, item in enumerate(items)
        }
        attempts = [0] * len(items)
        results: list[R | None] = [None] * len(items)
        for i in range(len(items)):
            results[i] = self._await_task(i, fn, items, futures, attempts)
        return list(results)  # type: ignore[return-value]

    def _await_task(
        self,
        i: int,
        fn: Callable[[T], R],
        items: list[T],
        futures: dict[int, concurrent.futures.Future],
        attempts: list[int],
    ) -> R:
        # One source of truth for deadline/retry/backoff math: the
        # pool's RetryPolicy.
        retry = self.policy.retry
        timeout = retry.deadline_s
        while True:
            future = futures[i]
            try:
                return future.result(timeout=timeout)
            except concurrent.futures.BrokenExecutor:
                # BrokenProcessPool and friends: worker death killed the
                # whole executor and every outstanding future with it.
                attempts[i] += 1
                log_event(
                    self._logger, "pool_broken",
                    task=i, attempt=attempts[i],
                )
                self._respawn(fn, items, futures, skip=i)
            except _TIMEOUT_ERRORS:
                attempts[i] += 1
                self.timeouts += 1
                if self._c_timeouts is not None:
                    self._c_timeouts.inc()
                current_tracer().event(
                    "runtime.timeout", task=i, attempt=attempts[i]
                )
                log_event(
                    self._logger, "pool_task_timeout",
                    task=i, attempt=attempts[i], deadline_s=timeout,
                )
                # A hung worker cannot be cancelled through the executor
                # API; kill the pool to reclaim the slot.
                self._respawn(fn, items, futures, skip=i)
            # Any other exception propagates: fn is deterministic, so the
            # serial path would raise the identical error.

            if attempts[i] > retry.max_retries:
                return self._serial_fallback(i, fn, items[i])
            self.retries += 1
            if self._c_retries is not None:
                self._c_retries.inc()
            current_tracer().event(
                "runtime.retry", task=i, attempt=attempts[i]
            )
            backoff = retry.backoff_s(attempts[i])
            log_event(
                self._logger, "pool_retry",
                task=i, attempt=attempts[i], backoff_s=round(backoff, 6),
            )
            if backoff > 0:
                self._sleep(backoff)
            futures[i] = self._ensure_pool().submit(fn, items[i])

    def _respawn(
        self,
        fn: Callable[[T], R],
        items: list[T],
        futures: dict[int, concurrent.futures.Future],
        *,
        skip: int,
    ) -> None:
        """Replace the dead pool; resubmit every task without a result.

        Task ``skip`` (the one whose failure triggered the respawn) is
        left to the caller's retry/fallback logic so it is never
        dispatched twice concurrently.
        """
        self._kill_pool()
        self.respawns += 1
        if self._c_respawns is not None:
            self._c_respawns.inc()
        current_tracer().event("runtime.respawn", workers=self.max_workers)
        pool = self._ensure_pool()
        resubmitted = 0
        for j, future in futures.items():
            if j == skip:
                continue
            done_ok = (
                future.done()
                and not future.cancelled()
                and future.exception() is None
            )
            if not done_ok:
                futures[j] = pool.submit(fn, items[j])
                resubmitted += 1
        log_event(
            self._logger, "pool_respawn",
            workers=self.max_workers, resubmitted=resubmitted,
        )

    def _serial_fallback(self, i: int, fn: Callable[[T], R], item: T) -> R:
        if not self.policy.serial_fallback:
            raise SupervisionError(
                f"task {i} failed after {self.policy.retry.max_retries} retries "
                f"and the serial fallback is disabled"
            )
        self.serial_fallbacks += 1
        if self._c_fallbacks is not None:
            self._c_fallbacks.inc()
        current_tracer().event("runtime.serial_fallback", task=i)
        log_event(self._logger, "pool_serial_fallback", task=i)
        # Deterministic last resort: the same pure function, in-process.
        # A crashed worker therefore degrades throughput, not correctness.
        return fn(item)

    def counters(self) -> dict[str, int]:
        """Snapshot of the pool's supervision accounting."""
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "respawns": self.respawns,
            "serial_fallbacks": self.serial_fallbacks,
        }

    def __repr__(self) -> str:
        return (
            f"SupervisedPool(workers={self.max_workers}, "
            f"retries={self.retries}, respawns={self.respawns}, "
            f"fallbacks={self.serial_fallbacks})"
        )


def supervised_map(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    *,
    max_workers: int,
    policy: RuntimePolicy | None = None,
    metrics: Any | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> list[R]:
    """One-shot :meth:`SupervisedPool.map` with pool lifecycle handled."""
    with SupervisedPool(
        max_workers, policy, metrics=metrics, sleep=sleep
    ) as pool:
        return pool.map(fn, tasks)


def run_shard_with_salvage(
    fn: Callable[[Sequence[T]], Sequence[R]],
    items: Sequence[T],
    *,
    error_factory: Callable[[T, Exception], R],
    metrics: Any | None = None,
) -> list[R]:
    """In-process shard supervision for serving paths (no processes).

    Runs ``fn`` over the whole shard; if the *shard pass* raises, the
    shard is salvaged item by item (one ``fn([item])`` call each), and an
    item whose solo pass still raises is replaced by
    ``error_factory(item, exc)`` — so one poisoned input degrades one
    answer, never the whole batch. Used by the service's engine passes,
    where outcomes are values and exceptions are engine bugs.

    A clean pass leaves no trace: the ``runtime.salvage`` span, the
    ``runtime_shard_salvages_total`` counter and the ``shard_salvage``
    log line appear only once a pass has failed.
    """
    try:
        return list(fn(items))
    except Exception as exc:  # noqa: BLE001 - salvage is the whole point
        if metrics is not None:
            metrics.counter(
                "runtime_shard_salvages_total",
                "Serving-path shard passes recovered item by item",
            ).inc()
        log_event(
            get_structured_logger(_LOGGER_NAME), "shard_salvage",
            size=len(items), error=type(exc).__name__,
        )
        with current_tracer().span(
            "runtime.salvage", size=len(items), error=type(exc).__name__
        ) as salvage_span:
            out: list[R] = []
            salvaged = 0
            for item in items:
                try:
                    out.extend(fn([item]))
                except Exception as item_exc:  # noqa: BLE001
                    out.append(error_factory(item, item_exc))
                    salvaged += 1
            salvage_span.set("substituted", salvaged)
        return out
