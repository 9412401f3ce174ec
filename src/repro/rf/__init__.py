"""Synthetic RF channel substrate.

This subpackage replaces the paper's physical RF Code testbed with a
physically-motivated synthetic channel:

* :mod:`~repro.rf.propagation` — deterministic distance-dependent path
  loss (the log-distance model),
* :mod:`~repro.rf.shadowing` — spatially-correlated log-normal shadowing
  fields (Gudmundson model) per reader,
* :mod:`~repro.rf.multipath` — image-method wall reflections that create
  position-dependent standing-wave fading (the phenomenon that breaks
  LANDMARC in the paper's closed Env3),
* :mod:`~repro.rf.fading` — per-reading Rician fast fading,
* :mod:`~repro.rf.interference` — RSSI corruption among densely packed
  tags (paper Fig. 4),
* :mod:`~repro.rf.disturbance` — transient disturbances from human
  movement (paper §4.1),
* :mod:`~repro.rf.quantization` — the 8-level power quantization of the
  original LANDMARC equipment,
* :mod:`~repro.rf.channel` — the composed :class:`RFChannel`,
* :mod:`~repro.rf.environments` — presets reproducing Env1/Env2/Env3.
"""

from .propagation import LogDistancePathLoss
from .shadowing import ShadowingField, ShadowingSpec
from .multipath import MultipathSpec, MultipathModel
from .fading import RicianFading, NoFading, FadingModel
from .interference import TagInterferenceModel
from .disturbance import HumanMovementDisturbance
from .quantization import PowerLevelQuantizer
from .channel import RFChannel
from .environments import EnvironmentSpec, env1, env2, env3, environment_by_name

__all__ = [
    "LogDistancePathLoss",
    "ShadowingField",
    "ShadowingSpec",
    "MultipathSpec",
    "MultipathModel",
    "FadingModel",
    "RicianFading",
    "NoFading",
    "TagInterferenceModel",
    "HumanMovementDisturbance",
    "PowerLevelQuantizer",
    "RFChannel",
    "EnvironmentSpec",
    "env1",
    "env2",
    "env3",
    "environment_by_name",
]
