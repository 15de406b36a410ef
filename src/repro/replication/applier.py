"""The replica site: devices rebuilt from the shipped commit stream.

A :class:`ReplicaApplier` models the secondary in a primary/secondary
pair.  It owns its *own* devices and its own
:class:`~repro.storage.cost_model.CostModel` -- replication is real I/O,
it just happens asynchronously on other hardware -- so attaching a
replica never perturbs the primary's paper-exact access accounting
(property-tested: a replicated run's primary stats are bit-identical to
an unreplicated run's).

The applier replays :class:`~repro.replication.link.CommitBatch`\\ es in
sequence order through :func:`repro.storage.apply_records`, which keeps
the device layer inside ``repro.storage`` (lint rule IO002).  Because a
batch is sealed only after the primary's group commit barrier, replica
state after any prefix of batches is a *commit-consistent* view: sample
file, candidate log and superblock manifest all as-of one barrier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.api import maybe_span
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.replicated import apply_records, device_image, image_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.api import Instrumentation
    from repro.replication.link import CommitBatch

__all__ = ["ReplicaApplier", "ReplicationError"]


class ReplicationError(ValueError):
    """A commit batch the replica refuses: out of order, repeated, or
    skipping a sequence number.  Raised before anything is written."""


class ReplicaApplier:
    """Replays shipped commit batches onto replica block devices."""

    def __init__(
        self,
        cost_model: CostModel | None = None,
        instrumentation: "Instrumentation | None" = None,
    ) -> None:
        self._cost_model = cost_model if cost_model is not None else CostModel()
        self._instr = instrumentation
        self._devices: dict[str, SimulatedBlockDevice] = {}
        #: sequence number of the newest applied batch (0 = nothing applied)
        self.applied_seq = 0
        #: the primary-computed digest carried by the newest applied batch
        self.last_digest = ""
        self.batches_applied = 0
        self.records_applied = 0
        self.bytes_applied = 0

    @property
    def cost_model(self) -> CostModel:
        """The replica's own cost clock (independent of the primary's)."""
        return self._cost_model

    @property
    def device_names(self) -> list[str]:
        return sorted(self._devices)

    def register(self, name: str) -> None:
        """Ensure a replica device exists for a primary device name.

        Called by the link at attach time (a control-plane handshake), so
        the replica's device set mirrors the primary's even before any
        data ships.
        """
        if name not in self._devices:
            self._devices[name] = SimulatedBlockDevice(self._cost_model, name=name)

    def device(self, name: str) -> SimulatedBlockDevice:
        self.register(name)
        return self._devices[name]

    def apply(self, batch: "CommitBatch") -> int:
        """Replay one commit batch, in stream order; returns payload bytes.

        Batches must arrive in sequence order -- the link ships its
        outbox FIFO, which guarantees it -- so replica state is always
        the primary's checkpoint-boundary prefix ``1..applied_seq``.  A
        batch that is out of order, repeated or skips a sequence number
        raises :class:`ReplicationError` before any write.
        """
        if batch.seq != self.applied_seq + 1:
            raise ReplicationError(
                f"commit batch {batch.seq} out of order "
                f"(replica has applied up to {self.applied_seq})"
            )
        applied = 0
        with maybe_span(
            self._instr,
            "replication.apply",
            seq=batch.seq,
            records=len(batch.records),
        ) as span:
            for name, record in batch.records:
                applied += apply_records(self.device(name), [record])
            if span is not None:
                span.set("bytes", applied)
        self.applied_seq = batch.seq
        self.last_digest = batch.digest
        self.batches_applied += 1
        self.records_applied += len(batch.records)
        self.bytes_applied += applied
        return applied

    # -- imaging (recovery + verification) -----------------------------------

    def images(self) -> dict[str, dict[int, bytes]]:
        """Snapshot every replica device's durable blocks, uncharged."""
        return {name: device_image(dev) for name, dev in self._devices.items()}

    def digest(self) -> str:
        """Digest of the replica's current state, computed replica-side.

        Matching this against the primary-computed ``last_digest`` is the
        non-circular consistency witness the DR drill checks: the two
        sites hash the same bytes via two independent code paths.
        """
        return image_digest(self.images())

    def stats(self) -> dict:
        return {
            "applied_seq": self.applied_seq,
            "batches_applied": self.batches_applied,
            "records_applied": self.records_applied,
            "bytes_applied": self.bytes_applied,
            "devices": len(self._devices),
            "last_digest": self.last_digest,
        }

    def __repr__(self) -> str:
        return (
            f"ReplicaApplier(applied_seq={self.applied_seq} "
            f"devices={len(self._devices)})"
        )
