"""repro — a reproduction of "VIRE: Active RFID-based Localization Using
Virtual Reference Elimination" (Zhao, Liu, Ni — ICPP 2007).

The package implements the VIRE algorithm, the LANDMARC baseline, and a
complete synthetic substitute for the paper's RF Code testbed: a
physically-motivated RF channel (path loss, correlated shadowing,
image-method multipath, fading, tag interference) and an event-driven
tag/reader/middleware simulation.

Quickstart
----------
>>> from repro import (paper_scenario, run_scenario,
...                    LandmarcEstimator, VIREEstimator, VIREConfig)
>>> scenario = paper_scenario("Env3", n_trials=5)
>>> vire = VIREEstimator(scenario.grid, VIREConfig(target_total_tags=900))
>>> result = run_scenario(scenario, [LandmarcEstimator(), vire])
>>> result.by_name("VIRE").summary().mean < result.by_name("LANDMARC").summary().mean
True

See README.md for the architecture overview, DESIGN.md for the system
inventory, and EXPERIMENTS.md for paper-vs-measured numbers.
"""

from .types import TrackingReading, EstimateResult, Estimator, estimation_error
from .exceptions import (
    ReproError,
    ConfigurationError,
    GeometryError,
    ChannelError,
    ReadingError,
    EstimationError,
    SimulationError,
    SupervisionError,
    CheckpointError,
)
from .geometry import (
    ReferenceGrid,
    Room,
    Wall,
    rectangular_room,
    paper_testbed_grid,
    corner_reader_positions,
    figure2a_tracking_tags,
    NON_BOUNDARY_TAGS,
    BOUNDARY_TAGS,
)
from .rf import (
    RFChannel,
    EnvironmentSpec,
    env1,
    env2,
    env3,
    environment_by_name,
    LogDistancePathLoss,
    ShadowingSpec,
    MultipathSpec,
    RicianFading,
    TagInterferenceModel,
    HumanMovementDisturbance,
    PowerLevelQuantizer,
)
from .hardware import (
    TestbedSimulator,
    Deployment,
    build_paper_deployment,
    ActiveTag,
    Reader,
    MiddlewareServer,
    SmoothingSpec,
    TagSpec,
    NEW_EQUIPMENT,
    ORIGINAL_EQUIPMENT,
)
from .baselines import (
    FingerprintEstimator,
    LandmarcEstimator,
    WeightedKnnEstimator,
    NearestReferenceEstimator,
    WeightedCentroidEstimator,
    TriangulationLandmarcEstimator,
)
from .core import (
    VIREEstimator,
    SoftVIREEstimator,
    VIREConfig,
    VirtualGrid,
    BoundaryAwareEstimator,
    IrregularVirtualGrid,
    IrregularVIREEstimator,
    QuorumPolicy,
)
from .faults import (
    FaultPlan,
    FaultInjector,
    FaultEvent,
    chaos_preset,
    ReaderOutageFault,
    BurstLossFault,
    TagDeathFault,
    CalibrationDriftFault,
    DelayFault,
    CrashPoint,
    SimulatedCrash,
)
from .calibration import (
    CalibrationPolicy,
    DriftCorrector,
    TrustState,
)
from .runtime import (
    RuntimePolicy,
    SupervisedPool,
    supervised_map,
    CheckpointWriter,
    CheckpointState,
    load_checkpoint,
)
from .tracking import (
    Trajectory,
    TagTracker,
    KalmanFilter2D,
    AlphaBetaFilter,
    MovingAverageFilter,
    NoFilter,
    evaluate_track,
)
from . import analysis
from .service import (
    LocalizationService,
    SessionReport,
    ServiceConfig,
    ServicePipeline,
    ServiceResult,
    MetricsRegistry,
)
from .engine import (
    BatchEngine,
    BatchLandmarc,
    EngineConfig,
    estimate_all,
)
from .experiments import (
    TestbedScenario,
    paper_scenario,
    run_scenario,
    TrialSampler,
    MeasurementSpec,
    figures,
    sweeps,
)

__version__ = "1.0.0"

__all__ = [
    # types
    "TrackingReading", "EstimateResult", "Estimator", "estimation_error",
    # exceptions
    "ReproError", "ConfigurationError", "GeometryError", "ChannelError",
    "ReadingError", "EstimationError", "SimulationError",
    "SupervisionError", "CheckpointError",
    # geometry
    "ReferenceGrid", "Room", "Wall", "rectangular_room",
    "paper_testbed_grid", "corner_reader_positions", "figure2a_tracking_tags",
    "NON_BOUNDARY_TAGS", "BOUNDARY_TAGS",
    # rf
    "RFChannel", "EnvironmentSpec", "env1", "env2", "env3",
    "environment_by_name", "LogDistancePathLoss", "ShadowingSpec",
    "MultipathSpec", "RicianFading", "TagInterferenceModel",
    "HumanMovementDisturbance", "PowerLevelQuantizer",
    # hardware
    "TestbedSimulator", "Deployment", "build_paper_deployment", "ActiveTag",
    "Reader", "MiddlewareServer", "SmoothingSpec", "TagSpec",
    "NEW_EQUIPMENT", "ORIGINAL_EQUIPMENT",
    # baselines
    "LandmarcEstimator", "WeightedKnnEstimator", "NearestReferenceEstimator",
    "WeightedCentroidEstimator", "TriangulationLandmarcEstimator",
    "FingerprintEstimator",
    # core (VIRE)
    "VIREEstimator", "SoftVIREEstimator", "VIREConfig", "VirtualGrid",
    "BoundaryAwareEstimator",
    "IrregularVirtualGrid", "IrregularVIREEstimator", "QuorumPolicy",
    # faults (chaos engineering)
    "FaultPlan", "FaultInjector", "FaultEvent", "chaos_preset",
    "ReaderOutageFault", "BurstLossFault", "TagDeathFault",
    "CalibrationDriftFault", "DelayFault",
    "CrashPoint", "SimulatedCrash",
    # calibration (self-healing drift correction + tag quarantine)
    "CalibrationPolicy", "DriftCorrector", "TrustState",
    # runtime (supervised execution + checkpoints)
    "RuntimePolicy", "SupervisedPool", "supervised_map",
    "CheckpointWriter", "CheckpointState", "load_checkpoint",
    # tracking (mobility)
    "Trajectory", "TagTracker", "KalmanFilter2D", "AlphaBetaFilter",
    "MovingAverageFilter", "NoFilter", "evaluate_track",
    # engine (vectorized batch estimation)
    "BatchEngine", "BatchLandmarc", "EngineConfig", "estimate_all",
    # experiments
    "TestbedScenario", "paper_scenario", "run_scenario", "TrialSampler",
    "MeasurementSpec", "figures", "sweeps", "analysis",
    # service (streaming localization)
    "LocalizationService", "SessionReport", "ServiceConfig",
    "ServicePipeline", "ServiceResult", "MetricsRegistry",
    "__version__",
]
