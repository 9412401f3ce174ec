"""The testbed simulator: wires tags, readers, channel and middleware.

Each tag gets a recurring beacon event. On each beacon, every reader
draws one RSSI sample from the channel (each with its own randomness),
optionally degraded by active disturbances (a person walking through),
and forwards detections to the middleware. The simulation is
deterministic for a given seed.

The frozen world (the channel's mean field) is computed once per tag
when the simulator is built and again only when a tag moves. The world
between two :meth:`TestbedSimulator.run_for` calls is then one block
(docs/CHANNEL.md, "Field and draw order"): the window's beacons are
popped and rescheduled first, then one normal draw and one RSSI mapping
cover all of them, one comparison decides detection for every reader and
beacon, and each beacon's records take one fault-injector call before
delivery in reader order. Nothing inside a window reads what another
beacon of the window produced, so the block equals emitting beacon by
beacon.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..exceptions import ConfigurationError, SimulationError
from ..rf.channel import RFChannel
from ..rf.disturbance import HumanMovementDisturbance
from ..types import TrackingReading
from ..utils.rng import derive_rng
from .events import EventQueue
from .middleware import MiddlewareServer, SmoothingSpec
from .readers import Reader, ReadingRecord
from .tags import ActiveTag

if TYPE_CHECKING:  # faults layer sits beside hardware; import is type-only
    from ..faults.injector import FaultInjector

__all__ = ["TestbedSimulator"]


class TestbedSimulator:
    """Event-driven simulation of one RFID testbed.

    Parameters
    ----------
    channel:
        The frozen RF world. Its reader ordering must match ``readers``.
    tags:
        All tags (reference + tracking). Reference tags must have
        ``is_reference=True`` and unique ids.
    readers:
        The readers, in the same order as the channel's reader positions.
    smoothing:
        Middleware smoothing config.
    seed:
        Seed for all per-reading randomness (fading draws, beacon jitter).
    disturbances:
        Optional human-movement disturbances active during the run.
    """

    def __init__(
        self,
        channel: RFChannel,
        tags: Sequence[ActiveTag],
        readers: Sequence[Reader],
        *,
        smoothing: SmoothingSpec | None = None,
        tracking_smoothing: SmoothingSpec | None = None,
        seed: int = 0,
        disturbances: Iterable[HumanMovementDisturbance] = (),
    ):
        if len(readers) != channel.n_readers:
            raise ConfigurationError(
                f"{len(readers)} readers supplied for a channel with "
                f"{channel.n_readers} reader positions"
            )
        for i, (reader, pos) in enumerate(zip(readers, channel.reader_positions)):
            if not np.allclose(reader.position, pos):
                raise ConfigurationError(
                    f"reader {i} position {reader.position} mismatches channel "
                    f"position {tuple(pos)}"
                )
        ids = [t.tag_id for t in tags]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("tag ids must be unique")
        self.channel = channel
        self.tags = list(tags)
        self.readers = list(readers)
        self._reader_positions = [r.position for r in self.readers]
        self.disturbances = tuple(disturbances)
        self.seed = int(seed)

        reference = {
            t.tag_id: t.position for t in self.tags if t.is_reference
        }
        if not reference:
            raise ConfigurationError("deployment has no reference tags")
        self.middleware = MiddlewareServer(
            reader_ids=[r.reader_id for r in self.readers],
            reference_tags=reference,
            smoothing=smoothing,
            tracking_smoothing=tracking_smoothing,
        )
        for reader in self.readers:
            # Expose per-reader frame accounting (frames received vs
            # dropped at the detection floor) through the middleware.
            self.middleware.register_frame_source(reader)
        self.queue = EventQueue()
        self._beacon_rng = derive_rng(self.seed, "beacons")
        self._sample_rng = derive_rng(self.seed, "samples")
        self._record_sink: Callable[[ReadingRecord], None] | None = None
        self._fault_injector: "FaultInjector | None" = None

        # The frozen mean field, one (K,) row per tag, and the position
        # each row was computed at; a moved tag's row is recomputed in
        # the first window it beacons in after the move.
        self._field_at = [t.position for t in self.tags]
        self._field = channel.mean_rssi_matrix(self._field_at).T.copy()
        # (time, tag index) of the beacons popped but not yet emitted.
        self._due: list[tuple[float, int]] = []

        # Stagger initial beacons uniformly over one interval so the
        # middleware fills evenly instead of in bursts.
        for i, tag in enumerate(self.tags):
            first = self._beacon_rng.uniform(0.0, tag.spec.beacon_interval_s)
            self.queue.schedule(first, self._make_beacon_event(i))

    # -- simulation machinery ---------------------------------------------

    def _make_beacon_event(self, index: int):
        tag = self.tags[index]

        def fire() -> None:
            if not tag.alive:
                return  # battery dead: no beacon, no rescheduling
            self._due.append((self.queue.clock.now, index))
            tag.record_beacon()
            if tag.alive:
                self.queue.schedule_in(
                    tag.next_beacon_delay(self._beacon_rng), fire
                )

        return fire

    def _emit_window(self, beacons: list[tuple[float, int]]) -> None:
        """Sample, detect and deliver one window's ``(time, tag)`` beacons."""
        tags = self.tags
        n, k = len(beacons), len(self.readers)
        index = [i for _, i in beacons]
        for i in set(index):  # a moved tag's field row follows it
            position = tags[i].position
            if position != self._field_at[i]:
                self._field[i] = self.channel.mean_rssi_matrix([position])[:, 0]
                self._field_at[i] = position
        # extra_* terms are attenuations; a positive tag offset boosts
        # RSSI. ``0.0 - x`` keeps a zero offset's attenuation at +0.0.
        extra = np.array([0.0 - tags[i].offset_db for i in index])
        extra = np.repeat(extra, k).reshape(n, k)
        for disturbance in self.disturbances:
            extra = extra + np.array(
                [
                    np.broadcast_to(
                        disturbance.attenuation_at_readers(
                            t, tags[i].position, self._reader_positions
                        ),
                        (k,),
                    )
                    for t, i in beacons
                ]
            )
        # The B stacked (K, 1) fields draw, in beacon order, each beacon's
        # (K, normals_per_read) block: the per-beacon stream.
        rssi = self.channel.sample_rssi_matrix(
            None,
            self._sample_rng,
            mean=self._field[index].reshape(n * k, 1),
            extra_attenuation_db=extra.reshape(n * k, 1),
        ).reshape(n, k)
        thresholds = np.array([r.detection_threshold_dbm for r in self.readers])
        heard = np.isfinite(rssi) & (rssi >= thresholds)
        for reader, got in zip(self.readers, heard.sum(axis=0).tolist()):
            reader.frames_received += got
            reader.frames_dropped += n - got
        reader_ids = [r.reader_id for r in self.readers]
        injector = self._fault_injector
        for (now, i), values, hits in zip(beacons, rssi.tolist(), heard.tolist()):
            tag_id = tags[i].tag_id
            records = [
                ReadingRecord(reader_id, tag_id, now, value)
                for reader_id, value, hit in zip(reader_ids, values, hits)
                if hit
            ]
            # The beacon is one block: one injector call for all its
            # records (none when no reader heard it), then delivery.
            if records and injector is not None:
                records = injector.process(records, now)
            self._deliver(records)

    def _deliver(self, records: list[ReadingRecord]) -> None:
        """Hand ``records`` in order to the record sink or the middleware."""
        deliver = self._record_sink
        if deliver is None:
            deliver = self.middleware.ingest
        for record in records:
            deliver(record)

    # -- public API ---------------------------------------------------------

    def set_record_sink(
        self, sink: Callable[[ReadingRecord], None] | None
    ) -> None:
        """Divert reading records to ``sink`` instead of the middleware.

        While a sink is installed, *every* detected beacon record goes to
        the sink and the built-in :class:`MiddlewareServer` receives
        nothing — the sink owns delivery (this is how the streaming
        service interposes its bounded ingestion queue between readers
        and middleware, so queue overflow genuinely loses data). Pass
        ``None`` to restore direct middleware ingestion.
        """
        self._record_sink = sink

    @property
    def record_sink(self) -> Callable[[ReadingRecord], None] | None:
        """The installed record sink, if any."""
        return self._record_sink

    def set_fault_injector(self, injector: "FaultInjector | None") -> None:
        """Interpose a :class:`~repro.faults.injector.FaultInjector`.

        The injector wraps the record path *between* reader detection
        and delivery (middleware or record sink). After a window's block
        draw and detection, each beacon's detected records go through
        one ``process(records, time)`` call at the beacon's own time, in
        beacon order, and only survivors are delivered — possibly
        modified (calibration drift) or late (delay faults, released by
        a later beacon's call or at the end of :meth:`run_for`).
        The RF channel and reader randomness are untouched, so with no
        injector — or an injector over an *empty* plan — downstream
        output is bit-identical to a fault-free run. Pass ``None`` to
        remove.
        """
        self._fault_injector = injector

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self.queue.clock.now

    def run_for(self, duration_s: float) -> int:
        """Advance the simulation by ``duration_s``; returns events fired.

        Two phases. First the window's due beacons fire in queue order:
        liveness check, battery bookkeeping and rescheduling from the
        beacon stream, each beacon noted as ``(time, tag)``. Then all of
        them are emitted as one block (:meth:`_emit_window`), and delayed
        fault records due by the new time are released.
        """
        if duration_s < 0:
            raise SimulationError(f"duration must be >= 0, got {duration_s}")
        fired = self.queue.run_until(self.now + duration_s)
        due, self._due = self._due, []
        if due:
            self._emit_window(due)
        if self._fault_injector is not None:
            # Delay faults buffer records past the last beacon of the
            # window; release everything due by the new simulation time.
            self._deliver(self._fault_injector.release_due(self.now))
        return fired

    def warm_up(self) -> float:
        """Run until every reader has fresh readings of every reference tag.

        Returns the simulation time reached. Raises
        :class:`SimulationError` if coverage is still incomplete after
        120 s (e.g. a reference tag is out of range of a reader).
        """
        step = 2.0
        deadline = self.now + 120.0
        while self.now < deadline:
            self.run_for(step)
            coverage = self.middleware.coverage(self.now)
            if all(c >= 1.0 for c in coverage.values()):
                return self.now
        raise SimulationError(
            "reference coverage below 1.0 after 120.0s: "
            f"{self.middleware.coverage(self.now)}"
        )

    def tag(self, tag_id: str) -> ActiveTag:
        """Look up a tag by id."""
        for t in self.tags:
            if t.tag_id == tag_id:
                return t
        raise ConfigurationError(f"no tag with id {tag_id!r}")

    def reading_for(self, tracking_tag_id: str) -> TrackingReading:
        """Middleware snapshot for one tracking tag at the current time."""
        return self.middleware.snapshot(tracking_tag_id, self.now)
