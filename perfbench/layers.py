"""Timers installed around the public calls of each layer, from outside.

Nothing in ``src/`` is edited: every timer is a wrapper swapped onto a
class or module attribute for the length of one ``with`` block and
swapped back afterwards.

Two instruments share one :class:`Patcher`:

* :class:`ServeProbe` is always on. It times every
  ``ServicePipeline.process_due``/``drain`` call (the wall time that
  produced each answer) and stamps each ``arm_calibration`` call (the end
  of set-up). Outside traced repetitions it also times the reference
  piece right before and after each call (about 0.3 ms each;
  ``reference.py``).
* :class:`LayerTracer` is the traced run. It wraps the calls listed in
  :data:`LAYERS` and keeps, per layer, the *self* time: a call's duration
  minus the duration of the wrapped calls nested inside it. Self times
  therefore add up to at most the wall time, and whatever wall time no
  layer claims is reported as unattributed.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

_clock = time.perf_counter

#: layer name -> ``(module, attribute path)`` of every wrapped callable.
#: A path ``"Class.method"`` wraps a method on the class; a bare name
#: wraps a module-level function *in that module's namespace* (where the
#: caller looks it up).
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "rf": (
        ("repro.rf.channel", "RFChannel.sample_rssi"),
        ("repro.rf.channel", "RFChannel.sample_rssi_matrix"),
    ),
    "hardware.simulator": (
        ("repro.hardware.simulator", "TestbedSimulator.run_for"),
    ),
    "faults": (
        ("repro.faults.injector", "FaultInjector.process"),
        ("repro.faults.injector", "FaultInjector.release_due"),
    ),
    "service.ingest": (
        ("repro.service.ingest", "IngestionLoop.submit"),
        ("repro.service.ingest", "IngestionLoop.deliver_pending"),
    ),
    "hardware.middleware": (
        ("repro.hardware.middleware", "MiddlewareServer.snapshot"),
        ("repro.hardware.middleware", "MiddlewareServer.reference_matrix"),
        ("repro.hardware.middleware", "MiddlewareServer.reader_freshness"),
        ("repro.hardware.middleware", "MiddlewareServer.coverage"),
    ),
    "calibration": (
        ("repro.calibration.corrector", "DriftCorrector.arm"),
        ("repro.calibration.corrector", "DriftCorrector.observe"),
        ("repro.calibration.corrector", "DriftCorrector.correct_reading"),
    ),
    "engine.vire": (
        ("repro.engine.batch", "BatchEngine.estimate_outcomes"),
    ),
    "engine.landmarc": (
        ("repro.engine.batch", "BatchLandmarc.estimate_outcomes"),
    ),
    "service.batcher": (
        ("repro.service.batcher", "MicroBatcher.submit"),
        ("repro.service.batcher", "MicroBatcher.poll"),
        ("repro.service.batcher", "MicroBatcher.drain"),
    ),
    "service.pipeline": (
        ("repro.service.pipeline", "ServicePipeline.process_due"),
        ("repro.service.pipeline", "ServicePipeline.drain"),
        ("repro.service.pipeline", "ServicePipeline.submit_request"),
    ),
    "zones.failover": (
        ("repro.zones.failover", "ZoneChannel.start"),
        ("repro.zones.failover", "ZoneChannel.advance_to"),
        ("repro.zones.failover", "ZoneChannel.interim_results"),
        ("repro.zones.failover", "ZoneChannel.last_estimate_site"),
        ("repro.zones.failover", "ZoneChannel.finish"),
    ),
    "zones.gateway": (
        ("repro.zones.gateway", "ZoneGateway.run"),
    ),
    "runtime.checkpoint": (
        ("repro.runtime.checkpoint", "CheckpointWriter.__init__"),
        ("repro.runtime.checkpoint", "CheckpointWriter.write_header"),
        ("repro.runtime.checkpoint", "CheckpointWriter.append_result"),
        ("repro.runtime.checkpoint", "CheckpointWriter.write_snapshot"),
        ("repro.runtime.checkpoint", "CheckpointWriter.write_marker"),
        ("repro.runtime.checkpoint", "CheckpointWriter.close"),
        ("repro.service.pipeline", "ServicePipeline.checkpoint_state"),
        ("repro.service.pipeline", "ServicePipeline.restore_checkpoint_state"),
        ("repro.service.session", "load_checkpoint"),
        ("repro.zones.worker", "load_checkpoint"),
    ),
    "session": (
        ("repro.service.session", "LocalizationService.run"),
        ("repro.loadtest.generator", "run_load_test"),
        ("repro.zones.worker", "ZoneWorker.run"),
        ("repro.zones.worker", "ZoneWorker.start"),
        ("repro.zones.worker", "ZoneWorker.step"),
        ("repro.zones.worker", "ZoneWorker.finish"),
    ),
    "setup.build": (
        ("repro.service.session", "build_paper_deployment"),
        ("repro.zones.worker", "build_paper_deployment"),
        ("repro.zones.worker", "ZoneWorker.__init__"),
        ("repro.service.pipeline", "ServicePipeline.__init__"),
    ),
}


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` for one :data:`LAYERS` entry."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Patcher:
    """Swaps attributes in and restores them, last in first out."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


class SetupDone(BaseException):
    """Raised at the last awaited arming, to end a set-up-only pass.

    A ``BaseException``, so no handler in the program takes it for a
    fault of its own.
    """


class ServeProbe:
    """Serving-call wall times and set-up end stamps (always installed).

    ``calls`` holds ``(start, end, answers, before, after)`` for every
    ``process_due`` / ``drain`` call, in call order. While ``gauge`` is
    set, the reference piece (``reference.piece_s``) runs right before
    and right after each call and ``before``/``after`` are its wall
    times; otherwise both are 0.
    While ``stop_at_arms`` is set, the arming that brings ``armed_at`` to
    that length raises :class:`SetupDone` instead of arming.
    """

    def __init__(self) -> None:
        self.calls: list[tuple[float, float, int, float, float]] = []
        self.armed_at: list[float] = []
        self.gauge = True
        self.stop_at_arms: int | None = None

    def reset(self) -> None:
        self.calls = []
        self.armed_at = []

    def install(self, patcher: Patcher) -> None:
        from reference import piece_s
        from repro.service.pipeline import ServicePipeline

        def timed_serve(original):
            @functools.wraps(original)
            def serve(pipeline, *args, **kwargs):
                before = piece_s() if self.gauge else 0.0
                t0 = _clock()
                served = original(pipeline, *args, **kwargs)
                t1 = _clock()
                after = piece_s() if self.gauge else 0.0
                self.calls.append((t0, t1, len(served), before, after))
                return served

            return serve

        def stamped_arm(original):
            @functools.wraps(original)
            def arm(pipeline, *args, **kwargs):
                self.armed_at.append(_clock())
                if self.stop_at_arms == len(self.armed_at):
                    raise SetupDone
                return original(pipeline, *args, **kwargs)

            return arm

        patcher.wrap(ServicePipeline, "process_due", timed_serve)
        patcher.wrap(ServicePipeline, "drain", timed_serve)
        patcher.wrap(ServicePipeline, "arm_calibration", stamped_arm)


class LayerTracer:
    """Self time and call count per layer, plus the objects to count.

    ``skip`` names layers to leave unwrapped (the self-test uses it to
    show that unwrapped time surfaces as unattributed).
    """

    def __init__(self, skip: frozenset[str] = frozenset()) -> None:
        self.skip = frozenset(skip)
        unknown = self.skip - set(LAYERS)
        if unknown:
            raise ValueError(f"unknown layers {sorted(unknown)}")
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        #: Instances created while traced, for their public counters.
        self.simulators: list = []
        self.pipelines: list = []
        self.injectors: list = []
        self._stack: list[list[float]] = []

    def _timer(self, layer: str, original):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(original)
        def timed(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = _clock()
            try:
                return original(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                self_s[layer] += dt - child[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += dt

        return timed

    def install(self, patcher: Patcher) -> None:
        for layer, targets in LAYERS.items():
            if layer in self.skip:
                continue
            for module_name, path in targets:
                owner, attr = _resolve(module_name, path)
                patcher.wrap(
                    owner, attr,
                    functools.partial(self._timer, layer),
                )
        self._install_counters(patcher)

    def _install_counters(self, patcher: Patcher) -> None:
        """Collect instances and count engine inputs.

        These wrappers keep no time; they are installed after (so
        outside) the timers and add only a list append per call.
        """
        from repro.engine.batch import BatchEngine, BatchLandmarc
        from repro.faults.injector import FaultInjector
        from repro.hardware.middleware import MiddlewareServer
        from repro.hardware.simulator import TestbedSimulator
        from repro.service.pipeline import ServicePipeline

        def collect(into: list):
            def make(original):
                @functools.wraps(original)
                def init(obj, *args, **kwargs):
                    original(obj, *args, **kwargs)
                    into.append(obj)

                return init

            return make

        def count(key: str, size):
            def make(original):
                @functools.wraps(original)
                def counted(obj, *args, **kwargs):
                    self.items[key] += size(args)
                    return original(obj, *args, **kwargs)

                return counted

            return make

        patcher.wrap(TestbedSimulator, "__init__", collect(self.simulators))
        patcher.wrap(ServicePipeline, "__init__", collect(self.pipelines))
        patcher.wrap(FaultInjector, "__init__", collect(self.injectors))
        patcher.wrap(
            BatchEngine, "estimate_outcomes",
            count("engine.vire.readings", lambda a: len(a[0])),
        )
        patcher.wrap(
            BatchLandmarc, "estimate_outcomes",
            count("engine.landmarc.readings", lambda a: len(a[0])),
        )
        patcher.wrap(
            MiddlewareServer, "snapshot",
            count("hardware.middleware.snapshots", lambda a: 1),
        )

    def counters(self) -> dict[str, float]:
        """The layers' own public counters, summed over every instance."""
        beacons = sum(
            tag.beacons_sent for sim in self.simulators for tag in sim.tags
        )
        hits = sum(p.cache.hits for p in self.pipelines if p.cache)
        misses = sum(p.cache.misses for p in self.pipelines if p.cache)
        batches = sum(p.batcher.batches_flushed for p in self.pipelines)
        submitted = sum(p.batcher.submitted for p in self.pipelines)
        return {
            "rf.calls": self.calls.get("rf", 0),
            "hardware.simulator.beacons": beacons,
            "faults.records_in": sum(i.records_seen for i in self.injectors),
            "faults.records_dropped": sum(
                i.records_dropped for i in self.injectors
            ),
            "service.ingest.records_delivered": sum(
                p.queue.delivered for p in self.pipelines
            ),
            "hardware.middleware.snapshots": self.items[
                "hardware.middleware.snapshots"
            ],
            "engine.vire.readings": self.items["engine.vire.readings"],
            "engine.landmarc.readings": self.items["engine.landmarc.readings"],
            "service.cache.hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0
            ),
            "service.batcher.batches": batches,
            "service.batcher.mean_batch_size": (
                submitted / batches if batches else 0.0
            ),
        }
