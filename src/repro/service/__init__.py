"""Real-time streaming localization service.

Turns the event-driven testbed into an online system: reader records
stream through a bounded ingestion queue into the middleware, pending
localization queries are micro-batched through the VIRE batch engine,
and every request that cannot take the primary path degrades gracefully
down a four-level ladder (full VIRE → VIRE on the quorum-surviving
reader subset → LANDMARC → last-known) instead of raising. Per-reader
circuit breakers (:mod:`~repro.service.health`) exclude readers the
middleware reports stale — e.g. mid-outage under an injected
:class:`~repro.faults.FaultPlan`. Counters, gauges and latency
histograms cover every stage, with a Prometheus-style text exposition.

Layering: ``service`` sits above ``core`` and ``hardware`` and is never
imported by them.

Quickstart
----------
>>> from repro.service import LocalizationService, ServiceConfig
>>> report = LocalizationService(ServiceConfig(max_batch_size=4)).run(
...     "Env3", duration_s=10.0)
>>> report.summary["results"] > 0
True
"""

from .metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    DEFAULT_LATENCY_BUCKETS_S,
)
from .health import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    ReaderHealthTracker,
)
from .ingest import BoundedRecordQueue, IngestionLoop
from .batcher import Batch, LocalizationRequest, MicroBatcher
from .pipeline import ServiceConfig, ServicePipeline, ServiceResult
from .session import (
    LocalizationService,
    SessionReport,
    result_from_doc,
    result_to_doc,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "ReaderHealthTracker",
    "BoundedRecordQueue",
    "IngestionLoop",
    "Batch",
    "LocalizationRequest",
    "MicroBatcher",
    "ServiceConfig",
    "ServicePipeline",
    "ServiceResult",
    "LocalizationService",
    "SessionReport",
    "result_to_doc",
    "result_from_doc",
]
