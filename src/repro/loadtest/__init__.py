"""Open-loop load testing, SLO analysis and the capacity model.

The proof layer for the ROADMAP's "heavy traffic" claim:

* :mod:`~repro.loadtest.profiles` — deterministic traffic shapes and
  byte-identical arrival schedules from derived RNG streams;
* :mod:`~repro.loadtest.generator` — the open-loop harness driving
  real zone workers / the zone gateway from a schedule;
* :mod:`~repro.loadtest.slo` — percentiles, ladder breakdowns and
  availability from results, metrics registries and obs traces;
* :mod:`~repro.loadtest.capacity` — the fitted localizations/s model.

``python -m repro loadtest`` runs a seeded sweep; ``python -m repro
report --from <dir>`` regenerates every capacity/accuracy figure from
the sweep's JSONL (see :mod:`repro.analysis.registry`). Methodology in
docs/LOADTEST.md.
"""

from ..obs.profile import quantile_linear
from .capacity import CAPACITY_FEATURES, CapacityModel, fit_capacity_model
from .generator import LoadTestReport, run_load_test
from .profiles import (
    ARRIVAL_PROCESSES,
    PRESET_PROFILES,
    ArrivalSchedule,
    LoadProfile,
    generate_schedule,
    preset_profile,
)
from .slo import (
    LEVEL_NAMES,
    metrics_slo,
    result_level,
    slo_summary,
    trace_slo,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "PRESET_PROFILES",
    "ArrivalSchedule",
    "LoadProfile",
    "generate_schedule",
    "preset_profile",
    "LoadTestReport",
    "run_load_test",
    "CAPACITY_FEATURES",
    "CapacityModel",
    "fit_capacity_model",
    "LEVEL_NAMES",
    "metrics_slo",
    "quantile_linear",
    "result_level",
    "slo_summary",
    "trace_slo",
]
