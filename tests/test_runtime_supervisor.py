"""Tests for repro.runtime: RuntimePolicy + SupervisedPool + wiring.

The worker fixtures deliberately kill or hang *worker* processes: each
one checks ``multiprocessing.parent_process()`` so the fault only fires
when running inside a pool worker — the serial in-process fallback (and
plain serial runs) compute the honest value. That is exactly the
supervision contract: a crashed worker degrades throughput, never
answers.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import time

import pytest

from repro.engine import EngineConfig
from repro.engine.sharding import compute_shards, map_shards
from repro.exceptions import ConfigurationError, SupervisionError
from repro.obs import Tracer, use_tracer
from repro.runtime import (
    RetryPolicy,
    RuntimePolicy,
    SupervisedPool,
    supervised_map,
)
from repro.runtime.supervisor import run_shard_with_salvage
from repro.service.metrics import MetricsRegistry


# -- picklable worker fixtures (module level by necessity) -------------------

def _square(i: int) -> int:
    return i * i


def _crash_on_three(i: int) -> int:
    """os._exit the *worker* on i == 3; honest value in the parent."""
    if i == 3 and mp.parent_process() is not None:
        os._exit(13)
    return i * i


def _hang_on_two(i: int) -> int:
    """Sleep far past any test deadline on i == 2, workers only."""
    if i == 2 and mp.parent_process() is not None:
        time.sleep(60.0)
    return i * i


def _raise_on_four(i: int) -> int:
    """Deterministic application error — must NOT be retried."""
    if i == 4:
        raise ValueError("deterministic failure on 4")
    return i * i


def _square_shard(shard) -> list[int]:
    return [i * i for i in shard]


def _crashy_shard(shard) -> list[int]:
    """Kill the worker whenever index 3 rides in the shard."""
    if 3 in list(shard) and mp.parent_process() is not None:
        os._exit(13)
    return [i * i for i in shard]


def _no_sleep(_s: float) -> None:
    pass


# -- RuntimePolicy -----------------------------------------------------------

class TestRuntimePolicy:
    def test_defaults_are_unsupervised(self):
        # Supervision is not a switch: the default policy only sets the
        # failure budget, which a clean run never consults.
        policy = RuntimePolicy()
        assert not hasattr(policy, "supervised")
        assert policy.serial_fallback is True
        assert policy.retry == RetryPolicy()
        assert policy.retry.max_retries >= 1
        assert EngineConfig().runtime == policy

    def test_backoff_is_exponential(self):
        policy = RuntimePolicy(
            retry=RetryPolicy(backoff_base_s=0.1, backoff_multiplier=2.0)
        )
        assert policy.retry.backoff_s(1) == pytest.approx(0.1)
        assert policy.retry.backoff_s(2) == pytest.approx(0.2)
        assert policy.retry.backoff_s(3) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RuntimePolicy(retry=2)  # type: ignore[arg-type]
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(deadline_s=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base_s=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_multiplier=0.5)

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(RuntimePolicy)] == [
            "retry", "serial_fallback",
        ]

    def test_with_returns_modified_copy(self):
        policy = RuntimePolicy()
        strict = policy.with_(serial_fallback=False)
        assert not strict.serial_fallback and policy.serial_fallback


# -- SupervisedPool ----------------------------------------------------------

class TestSupervisedPool:
    def test_happy_path_matches_serial(self):
        expected = [_square(i) for i in range(8)]
        with SupervisedPool(2, sleep=_no_sleep) as pool:
            assert pool.map(_square, list(range(8))) == expected
            assert pool.counters() == {
                "retries": 0, "timeouts": 0,
                "respawns": 0, "serial_fallbacks": 0,
            }

    def test_empty_input(self):
        with SupervisedPool(2) as pool:
            assert pool.map(_square, []) == []

    def test_worker_crash_recovers_bit_identical(self):
        """A worker that os._exits still yields the serial answers."""
        expected = [i * i for i in range(8)]
        metrics = MetricsRegistry()
        policy = RuntimePolicy(retry=RetryPolicy(max_retries=2))
        with SupervisedPool(
            2, policy, metrics=metrics, sleep=_no_sleep
        ) as pool:
            out = pool.map(_crash_on_three, list(range(8)))
            assert out == expected
            # The poisoned task exhausts its retries in workers, then the
            # serial fallback computes it in-process. Collateral damage
            # (which *other* futures the dying worker takes down) is
            # scheduling-dependent, so the exact counts are not — the
            # contract is answers, plus consistent accounting.
            assert pool.serial_fallbacks >= 1
            assert pool.respawns >= 1
        assert metrics.counter(
            "runtime_serial_fallbacks_total", ""
        ).value == float(pool.serial_fallbacks)
        assert metrics.counter(
            "runtime_pool_respawns_total", ""
        ).value == float(pool.respawns)

    def test_timeout_recovers_bit_identical(self):
        expected = [i * i for i in range(5)]
        policy = RuntimePolicy(
            retry=RetryPolicy(deadline_s=0.3, max_retries=1)
        )
        with SupervisedPool(2, policy, sleep=_no_sleep) as pool:
            out = pool.map(_hang_on_two, list(range(5)))
            assert out == expected
            assert pool.timeouts >= 1
            assert pool.serial_fallbacks >= 1

    def test_deterministic_error_propagates_without_retry(self):
        policy = RuntimePolicy(retry=RetryPolicy(max_retries=3))
        with SupervisedPool(2, policy, sleep=_no_sleep) as pool:
            with pytest.raises(ValueError, match="deterministic failure"):
                pool.map(_raise_on_four, list(range(6)))
            assert pool.retries == 0  # app errors are never retried

    def test_fallback_disabled_raises_supervision_error(self):
        policy = RuntimePolicy(
            retry=RetryPolicy(max_retries=0), serial_fallback=False
        )
        with SupervisedPool(2, policy, sleep=_no_sleep) as pool:
            with pytest.raises(SupervisionError):
                pool.map(_crash_on_three, list(range(5)))

    def test_backoff_sleeps_recorded(self):
        sleeps: list[float] = []
        policy = RuntimePolicy(
            retry=RetryPolicy(max_retries=2, backoff_base_s=0.01)
        )
        with SupervisedPool(2, policy, sleep=sleeps.append) as pool:
            pool.map(_crash_on_three, list(range(5)))
        assert len(sleeps) == pool.retries
        assert all(s > 0 for s in sleeps)

    def test_max_workers_validated(self):
        with pytest.raises(ConfigurationError):
            SupervisedPool(0)

    def test_supervised_map_one_shot(self):
        out = supervised_map(
            _square, list(range(6)), max_workers=2,
            sleep=_no_sleep,
        )
        assert out == [i * i for i in range(6)]


# -- run_shard_with_salvage (serving path) -----------------------------------

class TestShardSalvage:
    def test_clean_shard_untouched(self):
        out = run_shard_with_salvage(
            _square_shard, [1, 2, 3],
            error_factory=lambda item, exc: -1,
        )
        assert out == [1, 4, 9]

    def test_clean_shard_leaves_no_trace(self):
        # No span, no counter, no log line unless a pass fails: a clean
        # session's trace and Prometheus output carry no runtime_* trail.
        metrics = MetricsRegistry()
        tracer = Tracer()
        with use_tracer(tracer):
            run_shard_with_salvage(
                _square_shard, [1, 2, 3],
                error_factory=lambda item, exc: -1,
                metrics=metrics,
            )
        assert tracer.roots == []
        assert "runtime_" not in metrics.render_prometheus()

    def test_failed_pass_is_traced(self):
        def shard_fn(items):
            if 2 in items:
                raise RuntimeError("boom")
            return [i * i for i in items]

        tracer = Tracer()
        with use_tracer(tracer):
            run_shard_with_salvage(
                shard_fn, [1, 2, 3],
                error_factory=lambda item, exc: -1,
            )
        [span] = tracer.roots
        assert span.name == "runtime.salvage"
        assert span.attrs == {
            "size": 3, "error": "RuntimeError", "substituted": 1,
        }

    def test_poisoned_item_degrades_alone(self):
        def shard_fn(items):
            if any(i == 2 for i in items):
                raise RuntimeError("boom")
            return [i * i for i in items]

        metrics = MetricsRegistry()
        out = run_shard_with_salvage(
            shard_fn, [1, 2, 3],
            error_factory=lambda item, exc: ("salvaged", item),
            metrics=metrics,
        )
        assert out == [1, ("salvaged", 2), 9]
        assert metrics.counter(
            "runtime_shard_salvages_total", ""
        ).value == 1.0

    def test_error_factory_sees_the_exception(self):
        def shard_fn(items):
            raise KeyError("always")

        out = run_shard_with_salvage(
            shard_fn, ["x"],
            error_factory=lambda item, exc: type(exc).__name__,
        )
        assert out == ["KeyError"]


# -- wiring: map_shards always fans out under supervision --------------------

class TestSupervisedWiring:
    def test_map_shards_supervised_crash_recovery(self):
        config = EngineConfig(
            n_jobs=2, shard_size=2,
            runtime=RuntimePolicy(retry=RetryPolicy(backoff_base_s=0.0)),
        )
        out = map_shards(_crashy_shard, 8, config=config)
        assert out == [i * i for i in range(8)]

    def test_map_shards_default_policy_recovers_worker_exit(self):
        # No policy given: the pool is supervised anyway, so a worker
        # that os._exits costs a retry, never a BrokenProcessPool.
        out = map_shards(
            _crashy_shard, 8, config=EngineConfig(n_jobs=2, shard_size=2)
        )
        assert out == [i * i for i in range(8)]

    def test_map_shards_fan_out_is_traced_as_supervised(self):
        tracer = Tracer()
        with use_tracer(tracer):
            out = map_shards(
                _square_shard, 6, config=EngineConfig(n_jobs=2, shard_size=3)
            )
        assert out == [i * i for i in range(6)]
        [span] = tracer.roots
        assert span.name == "engine.map_shards"
        assert span.attrs["mode"] == "supervised"
        assert span.attrs["workers"] == 2

    def test_map_shards_unsupervised_unchanged(self):
        config = EngineConfig(n_jobs=2, shard_size=3)
        out = map_shards(_square_shard, 7, config=config)
        assert out == [i * i for i in range(7)]

    def test_engine_config_rejects_bad_runtime(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(runtime="supervised")  # type: ignore[arg-type]


# -- satellite: bool index guards --------------------------------------------

class TestBoolGuards:
    def test_compute_shards_rejects_bool_n_items(self):
        with pytest.raises(ConfigurationError, match="bool"):
            compute_shards(True)

    def test_compute_shards_rejects_non_int(self):
        with pytest.raises(ConfigurationError):
            compute_shards("5")  # type: ignore[arg-type]

    def test_compute_shards_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            compute_shards(-1)
