"""LH*RS — the paper's contribution.

An LH*RS file is an LH* file of data buckets whose bucket groups (m
consecutive buckets) each carry k parity buckets holding Reed-Solomon
parity of the group's *record groups* (records sharing a rank).  Any ≤ k
unavailable buckets per group — data or parity — are recoverable; k can
grow with the file (scalable availability).

Layering:

* :class:`LHRSFile` — the facade applications use.
* :class:`RSClient`, :class:`RSDataServer`, :class:`ParityServer`,
  :class:`RSCoordinator` — the distributed pieces, extending `repro.sdds`.
* :class:`RecoveryManager` — bucket / record / file-state recovery.
* `repro.core.availability` — the availability calculus and the
  scalable-availability policy.
"""

from repro.core.availability import (
    AvailabilityPolicy,
    file_availability,
    group_availability,
    monte_carlo_file_availability,
)
from repro.core.client import RSClient
from repro.core.config import LHRSConfig
from repro.core.costs import CostModel
from repro.core.coordinator import CoordinatorCrashed, RSCoordinator
from repro.core.data_bucket import RSDataServer
from repro.core.file import LHRSFile
from repro.core.journal import CoordinatorJournal, JournalRecord, JournalState
from repro.core.parity_bucket import ParityServer
from repro.core.recovery import RecoveryError, RecoveryManager
from repro.core.snapshot import restore_file, snapshot_file
from repro.core.standby import StandbyCoordinator

__all__ = [
    "LHRSFile",
    "LHRSConfig",
    "CostModel",
    "RSClient",
    "RSCoordinator",
    "StandbyCoordinator",
    "CoordinatorCrashed",
    "CoordinatorJournal",
    "JournalRecord",
    "JournalState",
    "RSDataServer",
    "ParityServer",
    "RecoveryManager",
    "RecoveryError",
    "snapshot_file",
    "restore_file",
    "AvailabilityPolicy",
    "file_availability",
    "group_availability",
    "monte_carlo_file_availability",
]
