"""Durable maintenance checkpoints (superblock).

One of the paper's arguments against the geometric file is crash safety:
the GF keeps part of the sample in a randomly-accessed memory buffer that
"cannot be serialized to disk without losing performance", so a failure
loses sample state (Sec. 6.5).  The candidate-log design has no such
problem -- the log and the sample are both on disk -- *provided* the small
amount of maintenance state (dataset size, log length, PRNG state) is also
durable.  This module makes it so:

* :class:`MaintenanceCheckpoint` -- the complete resumable state of a
  :class:`~repro.core.maintenance.SampleMaintainer`, including the full
  MT19937 state so that maintenance resumed from a checkpoint makes
  *bit-identical* decisions to an uninterrupted run (the same property
  Nomem Refresh exploits, applied to durability);
* :class:`DualSlotCheckpointStore` -- serialises a checkpoint into one
  of two alternating 4 096-byte superblocks on a block device (one random
  write to save, one random read per slot to load), so a torn superblock
  write never loses the previous checkpoint.

Everything fits one block: MT19937 state is 624 words (~2.5 kB), the rest
a few integers.  Recovery semantics are write-ahead-log style: a
checkpoint captures the state *as of its moment*; elements inserted after
it must be replayed by the upstream source, and -- because the PRNG state
is restored exactly -- the replay reproduces the original acceptance
decisions verbatim.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.rng.mt19937 import MTState
from repro.rng.random_source import RandomSource
from repro.storage.block_device import BlockDevice
from repro.storage.bufferpool import flush_barrier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.group_commit import GroupCommitBarrier

__all__ = [
    "MaintenanceCheckpoint",
    "DualSlotCheckpointStore",
    "CheckpointError",
]

_MAGIC = b"RSMP"
_VERSION = 3
_STRATEGIES = ("immediate", "candidate", "full")
# Must mirror repro.core.kinds.KINDS (append-only; asserted by the kind
# tests).  Kept as a local tuple so the storage layer stays below core/.
_KINDS = ("uniform", "weighted", "window")

# magic(4) version(H) strategy(B) flags(B) sample_size(q) dataset_size(q)
# dataset_at_refresh(q) log_count(q) inserts(q) refreshes(q)
# pending_accept(q) ops_since_refresh(q) seed(Q) spawn_count(I) w(d)
# mt_position(i) kind(B) kind_param(q) kind_threshold(d)
# crc(I) + 624 mt words
_HEADER = struct.Struct("<4sHBBqqqqqqqqQIdiBqd")
_MT_WORDS = struct.Struct("<624I")
_CRC = struct.Struct("<I")
_FLAG_HAS_W = 1


class CheckpointError(RuntimeError):
    """Raised when a superblock is missing, corrupt, or incompatible."""


@dataclass(frozen=True)
class MaintenanceCheckpoint:
    """Everything needed to resume maintenance exactly where it stopped."""

    strategy: str
    sample_size: int
    dataset_size: int
    dataset_size_at_refresh: int
    log_count: int
    inserts: int
    refreshes: int
    #: the reservoir's precomputed next-acceptance position (skip-based
    #: acceptance keeps one pending draw); None when not yet determined
    pending_accept: int | None
    ops_since_refresh: int
    rng_seed: int
    rng_spawn_count: int
    rng_state: MTState
    rng_w: float | None
    #: sample-kind manifest fields (version 3+).  ``kind_name`` is one of
    #: the registered kinds; ``kind_param`` its integer parameter
    #: (weighted: weight modulus; window: window size); ``kind_threshold``
    #: the weighted kind's stale acceptance threshold, serialised
    #: bit-exactly so reopened samples accept the same candidates.
    kind_name: str = "uniform"
    kind_param: int = 0
    kind_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.kind_name not in _KINDS:
            raise ValueError(f"unknown sample kind {self.kind_name!r}")
        if self.sample_size < 1:
            raise ValueError("sample_size must be positive")
        for name in (
            "dataset_size", "dataset_size_at_refresh",
            "log_count", "inserts", "refreshes", "rng_spawn_count",
            "ops_since_refresh",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        # Only what a kind's checkpoint_fields() can write: uniform has no
        # fields, weighted a positive modulus and a threshold in [0, inf]
        # (a NaN would refuse every candidate), window its capacity.
        param, threshold = self.kind_param, self.kind_threshold
        if self.kind_name == "weighted":
            valid = param >= 1 and threshold >= 0.0
        else:
            capacity = self.sample_size if self.kind_name == "window" else 0
            valid = param == capacity and threshold == 0.0
        if not valid:
            raise ValueError(
                f"impossible {self.kind_name} kind fields: "
                f"param {param}, threshold {threshold!r}"
            )

    # -- serialisation ------------------------------------------------------

    def to_bytes(self, block_size: int = 4096) -> bytes:
        """Encode into exactly one zero-padded block, CRC-protected."""
        flags = _FLAG_HAS_W if self.rng_w is not None else 0
        header = _HEADER.pack(
            _MAGIC,
            _VERSION,
            _STRATEGIES.index(self.strategy),
            flags,
            self.sample_size,
            self.dataset_size,
            self.dataset_size_at_refresh,
            self.log_count,
            self.inserts,
            self.refreshes,
            self.pending_accept if self.pending_accept is not None else -1,
            self.ops_since_refresh,
            self.rng_seed & 0xFFFFFFFFFFFFFFFF,
            self.rng_spawn_count,
            self.rng_w if self.rng_w is not None else 0.0,
            self.rng_state.position,
            _KINDS.index(self.kind_name),
            self.kind_param,
            self.kind_threshold,
        )
        body = header + _MT_WORDS.pack(*self.rng_state.key)
        payload = body + _CRC.pack(zlib.crc32(body))
        if len(payload) > block_size:
            raise ValueError(
                f"checkpoint needs {len(payload)} bytes; block is {block_size}"
            )
        return payload.ljust(block_size, b"\x00")

    @classmethod
    def from_bytes(cls, data: bytes) -> "MaintenanceCheckpoint":
        if len(data) < _HEADER.size + _MT_WORDS.size + _CRC.size:
            raise CheckpointError("superblock too short")
        body_len = _HEADER.size + _MT_WORDS.size
        body = data[:body_len]
        (stored_crc,) = _CRC.unpack_from(data, body_len)
        if stored_crc != zlib.crc32(body):
            raise CheckpointError("superblock CRC mismatch (corrupt or torn write)")
        (
            magic, version, strategy_idx, flags,
            sample_size, dataset_size, dataset_at_refresh, log_count,
            inserts, refreshes, pending_accept, ops_since_refresh,
            seed, spawn_count, w, position,
            kind_idx, kind_param, kind_threshold,
        ) = _HEADER.unpack_from(body)
        if magic != _MAGIC:
            raise CheckpointError(f"bad superblock magic {magic!r}")
        if version != _VERSION:
            raise CheckpointError(
                f"superblock version {version} unsupported (expected {_VERSION})"
            )
        if not 0 <= strategy_idx < len(_STRATEGIES):
            raise CheckpointError(f"invalid strategy index {strategy_idx}")
        if not 0 <= kind_idx < len(_KINDS):
            raise CheckpointError(f"invalid sample-kind index {kind_idx}")
        key = _MT_WORDS.unpack_from(body, _HEADER.size)
        try:
            return cls(
                strategy=_STRATEGIES[strategy_idx],
                sample_size=sample_size,
                dataset_size=dataset_size,
                dataset_size_at_refresh=dataset_at_refresh,
                log_count=log_count,
                inserts=inserts,
                refreshes=refreshes,
                pending_accept=pending_accept if pending_accept >= 0 else None,
                ops_since_refresh=ops_since_refresh,
                rng_seed=seed,
                rng_spawn_count=spawn_count,
                rng_state=MTState(key=key, position=position),
                rng_w=w if (flags & _FLAG_HAS_W) else None,
                kind_name=_KINDS[kind_idx],
                kind_param=kind_param,
                kind_threshold=kind_threshold,
            )
        except ValueError as exc:
            # A CRC-valid block can still carry an out-of-range field (a
            # negative count, an MT position past the state); refusing it
            # as a CheckpointError lets the dual-slot store fall back.
            raise CheckpointError(f"invalid superblock field: {exc}") from exc

    # -- RNG reconstruction ----------------------------------------------------

    def restore_rng(self) -> RandomSource:
        """Rebuild the maintainer's RandomSource exactly as checkpointed.

        Restores the generator state, the Algorithm-Z auxiliary variable
        *and* the spawn counter, so child streams derived after recovery
        match the ones an uninterrupted run would derive.
        """
        return RandomSource.resume(
            self.rng_seed, self.rng_spawn_count, (self.rng_state, self.rng_w)
        )

    @staticmethod
    def capture_rng(rng: RandomSource) -> tuple[int, int, MTState, float | None]:
        """Extract the serialisable RNG fields from a live source."""
        state, w = rng.snapshot()
        return rng.seed, rng.spawn_count, state, w


class DualSlotCheckpointStore:
    """Torn-write-tolerant checkpoint persistence over two alternating slots.

    A single superblock has a crash window: a power failure *during* its
    write leaves a torn block whose CRC no longer validates, losing both
    the new checkpoint and the one it was overwriting.  The classic fix
    (every journalled file system uses it) is two slots written
    alternately: a save always targets the slot *not* holding the newest
    valid checkpoint, so the previous checkpoint survives any torn write
    untouched.

    Recovery (:meth:`load`) validates both slots and returns the one with
    the most progress -- checkpoints carry monotone ``inserts``/``refreshes``
    counters, so ``(inserts, refreshes)`` orders generations without a
    separate sequence number.  Only when *both* slots are invalid (fresh
    device, or two consecutive torn writes) does it raise
    :class:`CheckpointError`.

    Costs: one random write per save, and one random read per slot per
    load.  ``save`` and ``exists`` pick the newest slot uncharged, from a
    ``peek_block`` of each slot.  The store remembers, per slot, the bytes
    it last validated there and the result, and decodes a slot again only
    when its bytes differ.  In the steady state a save decodes nothing,
    yet the choice stays a function of the slots' current bytes: a torn
    write or an out-of-band poke changes them and forces a fresh decode.
    """

    def __init__(
        self,
        device: BlockDevice,
        block_indexes: tuple[int, int] = (0, 1),
        commit_barrier: "GroupCommitBarrier | None" = None,
    ) -> None:
        first, second = block_indexes
        if first < 0 or second < 0:
            raise ValueError("block indexes must be non-negative")
        if first == second:
            raise ValueError("the two slots must be distinct blocks")
        self._device = device
        self._slots = (first, second)
        self._barrier = commit_barrier
        #: slot -> (bytes last validated there, checkpoint or None if invalid)
        self._seen: dict[int, tuple[bytes, MaintenanceCheckpoint | None]] = {}

    def _newest(
        self, read: Callable[[int], "MaintenanceCheckpoint | None"]
    ) -> "tuple[int, MaintenanceCheckpoint] | None":
        """(slot block index, checkpoint) of the newest valid slot, if any.

        ``read`` returns one slot's checkpoint, or None when the slot does
        not validate: :meth:`_peek` to choose a save target uncharged, a
        charged random read and decode on the recovery path.
        """
        best: tuple[int, MaintenanceCheckpoint] | None = None
        for slot in self._slots:
            checkpoint = read(slot)
            if checkpoint is None:
                continue
            if best is None or (checkpoint.inserts, checkpoint.refreshes) > (
                best[1].inserts, best[1].refreshes
            ):
                best = (slot, checkpoint)
        return best

    def _peek(self, slot: int) -> "MaintenanceCheckpoint | None":
        """A slot's checkpoint from an uncharged peek, decoded only if its
        bytes differ from the ones last validated there."""
        data = self._device.peek_block(slot)
        seen = self._seen.get(slot)
        if seen is None or seen[0] != data:
            seen = (data, _decode(data))
            self._seen[slot] = seen
        return seen[1]

    def save(self, checkpoint: MaintenanceCheckpoint) -> None:
        """Write into the slot NOT holding the newest valid checkpoint.

        One random block write; the surviving slot is never touched, so a
        crash mid-write degrades to "the previous checkpoint", never to
        "no checkpoint".
        """
        newest = self._newest(self._peek)
        target = (
            self._slots[0]
            if newest is None or newest[0] != self._slots[0]
            else self._slots[1]
        )
        data = checkpoint.to_bytes(self._device.block_size)
        self._device.write_block(target, data, sequential=False)
        self._seen[target] = (data, checkpoint)
        if self._barrier is not None:
            self._barrier.commit()
        else:
            flush_barrier(self._device)

    def load(self) -> MaintenanceCheckpoint:
        """Read both slots, return the newest valid checkpoint.

        Charges one random read per probed slot (recovery-path I/O).
        Raises :class:`CheckpointError` when neither slot validates.
        """
        best = self._newest(
            lambda slot: _decode(self._device.read_block(slot, sequential=False))
        )
        if best is None:
            raise CheckpointError(
                "no valid checkpoint in either superblock slot "
                f"{self._slots} (fresh device or both slots torn)"
            )
        return best[1]

    def exists(self) -> bool:
        """True when at least one slot holds a valid checkpoint."""
        return self._newest(self._peek) is not None


def _decode(data: bytes) -> "MaintenanceCheckpoint | None":
    """The checkpoint a slot's bytes hold, or None when they do not validate."""
    try:
        return MaintenanceCheckpoint.from_bytes(data)
    except CheckpointError:
        return None
