"""Replication capture at the block-device layer.

The paper's candidate-log design makes a sample's *entire* durable state
three small on-disk structures: the sample file, the candidate log and
the superblock manifest.  Replicating a sample therefore reduces to
replicating the block mutations those structures perform -- there is no
hidden in-memory state to ship (the contrast with the geometric file's
un-serialisable buffer, Sec. 6.5).

:class:`ReplicatedDevice` decorates any
:class:`~repro.storage.block_device.BlockDevice` and records every
*durable* mutation -- charged writes, uncharged pokes, discards and
truncations -- as a :class:`BlockRecord`, in device order.  The records
accumulate as *pending* until a
:class:`~repro.storage.group_commit.GroupCommitBarrier` seals them into a
commit batch (see :mod:`repro.replication.link`), so the shipped stream
is always a sequence of consistent checkpoint-boundary prefixes.

Layering (enforced by lint rule IO002: raw device methods live only
under ``storage/``): the replication *transport* in
:mod:`repro.replication` never touches devices directly -- it calls
:func:`apply_records`, :func:`device_image` and the digest helpers here.

The crash-ordering contract comes from the decorator stack::

    BufferPool(FaultInjectionDevice(ReplicatedDevice(SimulatedBlockDevice)))

The fault layer sits *outside* the replicated device, so a write killed
by an injected crash is neither applied to the primary nor recorded for
shipping; a torn-write fragment is poked through (and recorded) but the
crash raises before any barrier can seal it, so it never ships.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from repro.storage.block_device import BlockDevice
from repro.storage.cost_model import CostModel

__all__ = [
    "BlockRecord",
    "ReplicatedDevice",
    "apply_records",
    "apply_to_image",
    "base_device",
    "canonical_image",
    "clone_image",
    "device_image",
    "device_piece",
    "image_digest",
    "replicated_in",
]

#: Mutation kinds a :class:`BlockRecord` can carry.
_OPS = ("write", "poke", "discard", "discard_from")


@dataclass(frozen=True)
class BlockRecord:
    """One durable block mutation, as shipped over the replication stream.

    ``op`` is ``"write"`` (charged), ``"poke"`` (uncharged bookkeeping),
    ``"discard"`` or ``"discard_from"`` (logical truncation; ``data`` is
    empty).  ``sequential`` preserves the primary's access classification
    so the replica can mirror the charge if it wants to.
    """

    op: str
    index: int
    data: bytes = b""
    sequential: bool = True

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown record op {self.op!r}")
        if self.index < 0:
            raise ValueError("block index must be non-negative")

    @property
    def payload_bytes(self) -> int:
        """Bytes this record contributes to the shipped stream."""
        return len(self.data)


class ReplicatedDevice:
    """Block-device decorator that records every durable mutation.

    Reads pass straight through; mutations are applied to the inner
    device *and* appended to the pending record list, which the group
    commit barrier drains at each seal.  The decorator itself never
    charges extra I/O, so a replicated primary's
    :class:`~repro.storage.cost_model.AccessStats` are bit-identical to
    an unreplicated run.
    """

    def __init__(self, inner: BlockDevice, name: str = "") -> None:
        self._inner = inner
        self._name = name or getattr(inner, "name", "") or "replicated"
        self._pending: list[BlockRecord] = []
        #: lifetime count of recorded mutations (pending + sealed)
        self.records_captured = 0

    @property
    def block_size(self) -> int:
        return self._inner.block_size

    @property
    def cost_model(self) -> CostModel:
        return self._inner.cost_model

    @property
    def inner(self) -> BlockDevice:
        return self._inner

    @property
    def name(self) -> str:
        return self._name

    @property
    def pending_records(self) -> int:
        """Mutations captured since the last seal (primary-RAM state)."""
        return len(self._pending)

    def drain_pending(self) -> list[BlockRecord]:
        """Hand the pending records to a sealing commit batch and reset."""
        records = self._pending
        self._pending = []
        return records

    def _record(self, record: BlockRecord) -> None:
        self._pending.append(record)
        self.records_captured += 1

    # -- the BlockDevice protocol --------------------------------------------

    def read_block(self, index: int, sequential: bool) -> bytes:
        return self._inner.read_block(index, sequential)

    def read_blocks(self, start: int, count: int, sequential: bool) -> list[bytes]:
        return self._inner.read_blocks(start, count, sequential)

    def write_block(self, index: int, data: bytes, sequential: bool) -> None:
        self._inner.write_block(index, data, sequential)
        self._record(BlockRecord("write", index, bytes(data), sequential))

    def peek_block(self, index: int) -> bytes:
        return self._inner.peek_block(index)

    def poke_block(self, index: int, data: bytes) -> None:
        self._inner.poke_block(index, data)
        self._record(BlockRecord("poke", index, bytes(data)))

    def discard(self, index: int) -> None:
        self._inner.discard(index)
        self._record(BlockRecord("discard", index))

    def discard_from(self, first_index: int) -> None:
        self._inner.discard_from(first_index)
        self._record(BlockRecord("discard_from", first_index))

    def __repr__(self) -> str:
        return (
            f"ReplicatedDevice({self._name!r} pending={len(self._pending)} "
            f"captured={self.records_captured})"
        )


# -- applying a shipped stream ------------------------------------------------


def apply_records(device: BlockDevice, records: list[BlockRecord]) -> int:
    """Replay shipped records onto a replica device, in stream order.

    Every ``write`` is charged on the *replica's* cost model with the
    primary's sequential/random classification (the replica does real
    I/O; it just does it asynchronously).  ``poke`` mutations were free
    on the primary and stay free here.  Returns the payload bytes
    applied.
    """
    applied = 0
    for record in records:
        if record.op == "write":
            device.write_block(record.index, record.data, record.sequential)
        elif record.op == "poke":
            device.poke_block(record.index, record.data)
        elif record.op == "discard":
            device.discard(record.index)
        else:  # discard_from
            device.discard_from(record.index)
        applied += record.payload_bytes
    return applied


def apply_to_image(image: dict[int, bytes], records: list[BlockRecord]) -> None:
    """Replay records onto a plain block->bytes image (no device, no I/O).

    This is the primary-side *shadow*: the replication link keeps one per
    device, updated at every seal, so each commit boundary's digest is
    computed from the primary's own write stream before anything ships.
    """
    for record in records:
        if record.op in ("write", "poke"):
            image[record.index] = record.data
        elif record.op == "discard":
            image.pop(record.index, None)
        else:  # discard_from
            for block in [b for b in image if b >= record.index]:
                del image[block]


# -- canonical device images and digests --------------------------------------


def base_device(device: BlockDevice) -> BlockDevice:
    """Unwrap decorators (pool, fault, replication) down to the base device."""
    while True:
        inner = getattr(device, "inner", None)
        if inner is None:
            return device
        device = inner


def replicated_in(device: BlockDevice) -> "ReplicatedDevice | None":
    """The :class:`ReplicatedDevice` inside a decorator stack, if any."""
    current: BlockDevice | None = device
    while current is not None:
        if isinstance(current, ReplicatedDevice):
            return current
        current = getattr(current, "inner", None)
    return None


def device_image(device: BlockDevice) -> dict[int, bytes]:
    """Snapshot the *durable* blocks of a device stack (base device only).

    Anything a buffer pool still holds dirty is RAM, not durable state,
    and is deliberately excluded -- this is what a crash leaves behind.
    """
    base = base_device(device)
    snapshot = getattr(base, "snapshot_blocks", None)
    if snapshot is None:
        raise TypeError(
            f"device {base!r} cannot be imaged (no snapshot_blocks support)"
        )
    return snapshot()


def clone_image(device: BlockDevice, image: dict[int, bytes]) -> None:
    """Load a block image onto a fresh device without charging I/O.

    Recovery-workflow helper: the rebuilt catalog's devices start as
    byte-copies of the replica, then everything above charges normally.
    """
    for index in sorted(image):
        device.poke_block(index, image[index])


def device_piece(name: str, blocks: dict[int, bytes]) -> bytes:
    """One device's share of :func:`canonical_image` (``b""`` when empty).

    Format::

        name_len(u32) name block_count(u32) { index(u64) data_len(u32) data }*

    with blocks sorted by index.  The replication link caches one piece
    per device and re-packs only the devices a seal touched.
    """
    if not blocks:
        return b""
    encoded = name.encode("utf-8")
    parts = [struct.pack("<I", len(encoded)), encoded, struct.pack("<I", len(blocks))]
    for index in sorted(blocks):
        data = blocks[index]
        parts.append(struct.pack("<QI", index, len(data)))
        parts.append(data)
    return b"".join(parts)


def canonical_image(images: dict[str, dict[int, bytes]]) -> bytes:
    """Serialise a multi-device image deterministically (for cmp/digest).

    The join of every device's :func:`device_piece`, names sorted
    lexicographically.  Devices holding *no* blocks contribute nothing
    -- a never-written device is indistinguishable from an absent one,
    so two sites that attached devices at different moments still
    serialise identical durable state to identical bytes.  That property
    is what the DR drill's ``cmp`` check and the commit-batch digests
    rest on.
    """
    return b"".join(device_piece(name, images[name]) for name in sorted(images))


def image_digest(images: dict[str, dict[int, bytes]]) -> str:
    """SHA-256 over the canonical serialisation of a multi-device image."""
    return hashlib.sha256(canonical_image(images)).hexdigest()
