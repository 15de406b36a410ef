"""Continuous, cost-clocked shipping of commit batches to a replica.

The :class:`ReplicationLink` is the primary-side half of the replication
pair.  It owns three things:

* the **capture set** -- every catalog device is wrapped in a
  :class:`~repro.storage.replicated.ReplicatedDevice` via
  :meth:`attach`, so all durable mutations are recorded in device order;
* the **commit stream** -- each
  :class:`~repro.storage.group_commit.GroupCommitBarrier` commit seals
  the pending records of its member devices into one
  :class:`CommitBatch`, stamped with the primary cost clock and a digest
  of the primary's durable state at that boundary;
* the **outbox** -- sealed batches wait (primary RAM, lost on crash)
  until the configured replication-lag budget expires, then ship to the
  :class:`~repro.replication.applier.ReplicaApplier`.

Time is the paper's cost clock
(:meth:`~repro.storage.cost_model.CostModel.cost_seconds`), not wall
time, so lag accounting is deterministic and seed-reproducible: a batch
sealed at cost-second *t* ships at the first shipping opportunity at or
after ``t + lag_budget``.  ``lag_budget=0`` ships every batch at the
next opportunity (the serve scheduler offers one after every event).

The per-batch **digest** is the disaster-recovery witness.  The link
maintains a shadow image per device -- a plain ``block -> bytes`` map
replayed from the sealed records, never read back from any device -- and
hashes the shadows' canonical image at each seal, with the values of
:func:`~repro.storage.replicated.image_digest`.  A seal costs its batch,
not the catalog: the link caches each device's serialised piece and the
SHA-256 state after every prefix of the name-ordered pieces, so it
re-packs only the devices it drained and re-hashes from the first of
them onward.  After a primary crash, a catalog rebuilt from the replica
must reproduce the digest of the last *shipped* batch byte-for-byte;
sealed-but-unshipped batches are the (bounded, budgeted) replication
loss.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.obs.api import maybe_span
from repro.replication.applier import ReplicaApplier
from repro.storage.block_device import BlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.replicated import (
    BlockRecord,
    ReplicatedDevice,
    apply_to_image,
    device_piece,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.api import Instrumentation

__all__ = ["CommitBatch", "ReplicationLink"]


@dataclass(frozen=True)
class CommitBatch:
    """One sealed group commit: the unit the replica applies atomically.

    ``records`` interleaves the member devices' mutations as
    ``(device_name, record)`` pairs in capture order.  ``seal_time`` is
    the primary cost clock at the sealing barrier, and ``digest`` hashes
    the primary's durable state (all attached devices) at this boundary.
    """

    seq: int
    seal_time: float
    records: tuple[tuple[str, BlockRecord], ...]
    digest: str

    @property
    def payload_bytes(self) -> int:
        return sum(record.payload_bytes for _, record in self.records)


class ReplicationLink:
    """Primary-side capture, sealing and budget-clocked shipping."""

    def __init__(
        self,
        lag_budget: float = 0.0,
        applier: ReplicaApplier | None = None,
        instrumentation: "Instrumentation | None" = None,
    ) -> None:
        if lag_budget < 0:
            raise ValueError("lag_budget must be non-negative")
        self._lag_budget = lag_budget
        self._instr = instrumentation
        self._applier = (
            applier
            if applier is not None
            else ReplicaApplier(instrumentation=instrumentation)
        )
        self._shadow: dict[str, dict[int, bytes]] = {}
        #: attached names in canonical (sorted) order, and each device's
        #: cached ``device_piece`` of its shadow
        self._names: list[str] = []
        self._pieces: dict[str, bytes] = {}
        #: ``_prefix[i]`` is the SHA-256 state over the pieces of
        #: ``_names[:i]``; states past the first changed piece are dropped
        self._prefix = [hashlib.sha256()]
        self._cost_model: CostModel | None = None
        #: every sealed batch, in order (the drill's primary-side witness)
        self.history: list[CommitBatch] = []
        #: sealed but not yet shipped (primary RAM; lost at a crash)
        self._outbox: list[CommitBatch] = []
        self.batches_sealed = 0
        self.batches_shipped = 0
        self.records_shipped = 0
        self.bytes_shipped = 0
        #: per-shipped-batch lag samples (cost-seconds), for the report
        self.lag_samples: list[float] = []
        if instrumentation is not None:
            self._g_lag = instrumentation.gauge("replication.lag_seconds")
            self._g_backlog = instrumentation.gauge("replication.backlog_batches")
            self._c_batches = instrumentation.counter("replication.shipped_batches")
            self._c_bytes = instrumentation.counter("replication.shipped_bytes")

    # -- introspection -------------------------------------------------------

    @property
    def lag_budget(self) -> float:
        return self._lag_budget

    @property
    def applier(self) -> ReplicaApplier:
        return self._applier

    @property
    def device_names(self) -> list[str]:
        return list(self._names)

    @property
    def backlog(self) -> int:
        """Sealed batches not yet shipped (bounded by the lag budget)."""
        return len(self._outbox)

    # -- capture set ---------------------------------------------------------

    def attach(self, device: BlockDevice, name: str = "") -> ReplicatedDevice:
        """Wrap a primary device for capture and register its replica twin."""
        wrapped = ReplicatedDevice(device, name=name)
        if wrapped.name in self._shadow:
            raise ValueError(f"device {wrapped.name!r} already attached")
        self._shadow[wrapped.name] = {}
        position = bisect.bisect_left(self._names, wrapped.name)
        self._names.insert(position, wrapped.name)
        self._pieces[wrapped.name] = b""
        del self._prefix[position + 1:]
        self._applier.register(wrapped.name)
        if self._cost_model is None:
            self._cost_model = device.cost_model
        return wrapped

    # -- sealing (called by the group commit barrier) ------------------------

    def seal(self, devices: Sequence[ReplicatedDevice]) -> "CommitBatch | None":
        """Seal the members' pending records into one commit batch.

        Called by :meth:`GroupCommitBarrier.commit` *after* its flush
        phase, so every sealed record describes a block that is already
        durable on the primary.  Commits with nothing pending seal no
        batch (a refresh that moved no blocks ships nothing).
        """
        records: list[tuple[str, BlockRecord]] = []
        first = len(self._names)
        for device in devices:
            drained = device.drain_pending()
            if not drained:
                continue
            name = device.name
            shadow = self._shadow[name]
            apply_to_image(shadow, drained)
            self._pieces[name] = device_piece(name, shadow)
            first = min(first, bisect.bisect_left(self._names, name))
            records.extend((name, record) for record in drained)
        if not records:
            return None
        now = self._cost_model.cost_seconds() if self._cost_model is not None else 0.0
        batch = CommitBatch(
            seq=self.batches_sealed + 1,
            seal_time=now,
            records=tuple(records),
            digest=self._digest(first),
        )
        self.batches_sealed += 1
        self.history.append(batch)
        self._outbox.append(batch)
        if self._instr is not None:
            self._g_backlog.set(len(self._outbox))
        return batch

    def _digest(self, first: int) -> str:
        """SHA-256 of the canonical image; pieces before ``first`` unchanged."""
        prefix = self._prefix
        del prefix[first + 1:]
        for name in self._names[len(prefix) - 1:]:
            state = prefix[-1].copy()
            state.update(self._pieces[name])
            prefix.append(state)
        return prefix[-1].hexdigest()

    # -- shipping ------------------------------------------------------------

    def ship_due(self, now: float) -> int:
        """Ship every batch whose lag budget has expired; returns how many.

        The serve scheduler calls this after each processed event with
        the current cost clock -- the deterministic analogue of an async
        shipping daemon waking up.
        """
        shipped = 0
        while self._outbox and self._outbox[0].seal_time + self._lag_budget <= now:
            self._ship(self._outbox.pop(0), now)
            shipped += 1
        return shipped

    def ship_all(self) -> int:
        """Drain the outbox unconditionally (end-of-run / clean shutdown)."""
        now = self._cost_model.cost_seconds() if self._cost_model is not None else 0.0
        shipped = 0
        while self._outbox:
            batch = self._outbox.pop(0)
            self._ship(batch, max(now, batch.seal_time))
            shipped += 1
        return shipped

    def _ship(self, batch: CommitBatch, now: float) -> None:
        lag = max(0.0, now - batch.seal_time)
        with maybe_span(
            self._instr,
            "replication.ship",
            seq=batch.seq,
            records=len(batch.records),
            lag_seconds=round(lag, 9),
        ):
            self._applier.apply(batch)
        self.batches_shipped += 1
        self.records_shipped += len(batch.records)
        self.bytes_shipped += batch.payload_bytes
        self.lag_samples.append(lag)
        if self._instr is not None:
            self._g_lag.set(lag)
            self._g_backlog.set(len(self._outbox))
            self._c_batches.inc()
            self._c_bytes.inc(batch.payload_bytes)

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict:
        """The serve report's ``replication`` section (byte-stable)."""
        lags = self.lag_samples
        return {
            "enabled": True,
            "lag_budget": self._lag_budget,
            "devices": len(self._names),
            "batches_sealed": self.batches_sealed,
            "batches_shipped": self.batches_shipped,
            "records_shipped": self.records_shipped,
            "bytes_shipped": self.bytes_shipped,
            "backlog_batches": len(self._outbox),
            "applied_seq": self._applier.applied_seq,
            "last_digest": self._applier.last_digest,
            "lag_seconds": {
                "count": len(lags),
                "max": round(max(lags), 9) if lags else 0.0,
                "mean": round(sum(lags) / len(lags), 9) if lags else 0.0,
            },
        }

    def __repr__(self) -> str:
        return (
            f"ReplicationLink(devices={len(self._names)} "
            f"sealed={self.batches_sealed} shipped={self.batches_shipped} "
            f"backlog={len(self._outbox)})"
        )
