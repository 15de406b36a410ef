"""Continuous catalog replication and disaster recovery.

The paper's durability story (superblock manifests, candidate logs,
idempotent refresh) makes every catalogued sample recoverable from its
*own* devices.  This subpackage extends that to losing the devices
themselves: a primary/secondary pair where every manifest save's group
commit seals a batch that ships, the secondary is always a prefix of
*checkpoint boundaries* (the only states a failover can resume), and
failover rebuilds a bit-identical catalog.

* :mod:`~repro.replication.link` -- primary-side capture, commit-batch
  sealing and lag-budgeted shipping (:class:`ReplicationLink`,
  :class:`CommitBatch`);
* :mod:`~repro.replication.applier` -- the replica site replaying the
  stream (:class:`ReplicaApplier`);
* :mod:`~repro.replication.recovery` -- failover
  (:func:`recover_from_replica`);
* :mod:`~repro.replication.drill` -- the seeded disaster-recovery drill
  the CI runs: crash the primary at an arbitrary (including
  mid-group-commit) write, recover from the replica, compare bytes;
* :mod:`~repro.replication.cli` -- the ``repro dr-drill`` command.

See ``docs/replication.md`` for the design and its invariants.
"""

from repro.replication.applier import ReplicaApplier, ReplicationError
from repro.replication.drill import DrillConfig, run_drill
from repro.replication.link import CommitBatch, ReplicationLink
from repro.replication.recovery import RecoveryResult, recover_from_replica

__all__ = [
    "CommitBatch",
    "ReplicationLink",
    "ReplicaApplier",
    "ReplicationError",
    "RecoveryResult",
    "recover_from_replica",
    "DrillConfig",
    "run_drill",
]
