"""``repro.obs`` — deterministic tracing and per-stage profiling.

The observability layer of the reproduction-turned-serving-system:

* :mod:`repro.obs.tracer` — hierarchical span tracer (context-manager
  API) with a **deterministic logical core** (span tree,
  attributes, sim-clock timestamps) and wall-clock annotation kept
  strictly aside. The ambient default is a no-op tracer, so every
  instrumentation point is effectively free until a trace is requested.
* :mod:`repro.obs.trace_file` — canonical JSONL trace files, logical
  canonicalization (the byte-identity artifact of the CI trace-smoke
  job) and structural diffing.
* :mod:`repro.obs.profile` — per-stage latency tables and the
  degradation-ladder breakdown behind ``repro trace summary``.

See ``docs/OBSERVABILITY.md`` for the tracer API, the determinism
contract and CLI walkthroughs.
"""

from .profile import (
    StageStats,
    format_stage_table,
    format_summary,
    ladder_breakdown,
    stage_statistics,
)
from .trace_file import (
    TRACE_FORMAT,
    TRACE_VERSION,
    TraceWriter,
    canonical_logical_json,
    diff_documents,
    logical_documents,
    read_trace,
)
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    use_tracer,
)

__all__ = [
    # tracer
    "Span", "Tracer", "NullTracer", "NULL_TRACER",
    "current_tracer", "use_tracer",
    # trace files
    "TRACE_FORMAT", "TRACE_VERSION", "TraceWriter",
    "read_trace", "logical_documents", "canonical_logical_json",
    "diff_documents",
    # profiling
    "StageStats", "stage_statistics", "ladder_breakdown",
    "format_stage_table", "format_summary",
]
