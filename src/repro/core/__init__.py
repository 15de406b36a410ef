"""The paper's contribution: logging schemes and deferred refresh algorithms.

Layout mirrors the paper:

* :mod:`~repro.core.reservoir` -- reservoir sampling, the base scheme
  (Sec. 2, [4]);
* :mod:`~repro.core.logs` -- the log phase: full logging (Sec. 3.1),
  candidate logging (Sec. 3.2) and the update log (Sec. 5);
* :mod:`~repro.core.refresh` -- the refresh phase: naive algorithms
  (Sec. 3), Array/Stack/Nomem Refresh (Sec. 4) and the full-log adapter
  (Sec. 5);
* :mod:`~repro.core.maintenance` -- orchestration of both phases under a
  refresh policy (immediate / periodic / threshold / manual).
"""

from repro.core.acceptance import BiasedAcceptance
from repro.core.stratified import GroupSample, StratifiedSampleManager
from repro.core.reservoir import ReservoirSampler, build_reservoir
from repro.core.logs import (
    CandidateLogger,
    CandidateLogSource,
    FullLogger,
    FullLogSource,
    UpdateLogger,
)
from repro.core.maintenance import MaintenanceStats, SampleMaintainer
from repro.core.policies import (
    ManualPolicy,
    PeriodicPolicy,
    RefreshPolicy,
    ThresholdPolicy,
)
from repro.core.refresh import (
    ArrayRefresh,
    NaiveCandidateRefresh,
    NaiveFullRefresh,
    NomemRefresh,
    RefreshResult,
    StackRefresh,
)

__all__ = [
    "ReservoirSampler",
    "build_reservoir",
    "BiasedAcceptance",
    "StratifiedSampleManager",
    "GroupSample",
    "CandidateLogger",
    "CandidateLogSource",
    "FullLogger",
    "FullLogSource",
    "UpdateLogger",
    "SampleMaintainer",
    "MaintenanceStats",
    "RefreshPolicy",
    "PeriodicPolicy",
    "ThresholdPolicy",
    "ManualPolicy",
    "ArrayRefresh",
    "StackRefresh",
    "NomemRefresh",
    "NaiveCandidateRefresh",
    "NaiveFullRefresh",
    "RefreshResult",
]
