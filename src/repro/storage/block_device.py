"""Simulated block device with categorised access counting.

The device stores real block contents (so algorithms are verified to move
the right bytes, not just the right counts) and charges every block access
to an :class:`~repro.storage.cost_model.AccessStats` via a shared
:class:`~repro.storage.cost_model.CostModel`.

Classification (sequential vs. random) is declared by the caller -- the
file layer in :mod:`repro.storage.files` -- because only it knows the
access *pattern* an operation belongs to (a scan, an append stream, a
random probe).  This mirrors the paper's accounting, which counts "the
number of sequential/random reads and writes on a block-level basis"
per algorithm phase (Sec. 6.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.storage.cost_model import CostModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs uses storage)
    from repro.obs.api import Instrumentation

__all__ = ["BlockDevice", "SimulatedBlockDevice"]


class BlockDevice(Protocol):
    """Block-device interface shared by every backend.

    The simulated, real-disk, fault-injected and buffer-pooled devices all
    satisfy this protocol, which makes them interchangeable throughout the
    stack: the file layer, the checkpoint stores and the serve catalog are
    typed against it and never name a concrete device.

    ``read_block``/``write_block`` are *charged* accesses (counted by the
    cost model with the caller-declared sequential/random classification,
    Sec. 6.1).  ``read_blocks(start, count, sequential)`` is a run of
    charged reads in one call: its bytes, charges, counters and (on a
    pool) frames are exactly those of ``read_block`` on each block of
    the run in turn.  ``peek_block``/``poke_block`` are uncharged
    bookkeeping accesses -- cache hits the paper's accounting grants for
    free -- and ``discard``/``discard_from`` model logical truncation,
    which moves no data.
    """

    @property
    def block_size(self) -> int:  # pragma: no cover - protocol
        ...

    @property
    def cost_model(self) -> CostModel:  # pragma: no cover - protocol
        ...

    def read_block(self, index: int, sequential: bool) -> bytes:  # pragma: no cover
        ...

    def read_blocks(
        self, start: int, count: int, sequential: bool
    ) -> list[bytes]:  # pragma: no cover - protocol
        ...

    def write_block(self, index: int, data: bytes, sequential: bool) -> None:  # pragma: no cover
        ...

    def peek_block(self, index: int) -> bytes:  # pragma: no cover - protocol
        ...

    def poke_block(self, index: int, data: bytes) -> None:  # pragma: no cover
        ...

    def discard(self, index: int) -> None:  # pragma: no cover - protocol
        ...

    def discard_from(self, first_index: int) -> None:  # pragma: no cover
        ...


class SimulatedBlockDevice:
    """In-memory block store that meters accesses through a cost model.

    Blocks spring into existence zero-filled on first touch, so files can
    grow by simply writing past the end, as on a sparse file.
    """

    def __init__(
        self,
        cost_model: CostModel,
        name: str = "",
        instrumentation: "Instrumentation | None" = None,
    ) -> None:
        self._cost_model = cost_model
        self._blocks: dict[int, bytes] = {}
        #: what an unwritten block reads as; one shared immutable copy
        self._zero = bytes(cost_model.disk.block_size)
        self._name = name
        self._instr = instrumentation

    @property
    def block_size(self) -> int:
        return self._cost_model.disk.block_size

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    @property
    def name(self) -> str:
        return self._name

    @property
    def instrumentation(self) -> "Instrumentation | None":
        return self._instr

    @instrumentation.setter
    def instrumentation(self, value: "Instrumentation | None") -> None:
        self._instr = value

    @property
    def allocated_blocks(self) -> int:
        """How many blocks have ever been written."""
        return len(self._blocks)

    def snapshot_blocks(self) -> dict[int, bytes]:
        """Copy of the allocated block map, without charging any I/O.

        The replication and disaster-recovery tooling images devices
        through this (see :func:`repro.storage.replicated.device_image`)
        to compare durable state byte-for-byte across crash boundaries.
        """
        return dict(self._blocks)

    def read_block(self, index: int, sequential: bool) -> bytes:
        """Return the contents of a block, charging one read access."""
        self._check_index(index)
        if self._instr is not None and self._instr.trace_storage:
            with self._instr.span(
                "storage.device.read",
                device=self._name,
                block=index,
                pattern="seq" if sequential else "random",
            ):
                self._cost_model.charge("read", sequential)
            self._instr.record_device_access(self._name, "read", sequential)
        else:
            self._cost_model.charge("read", sequential)
            if self._instr is not None:
                self._instr.record_device_access(self._name, "read", sequential)
        return self._blocks.get(index, self._zero)

    def read_blocks(self, start: int, count: int, sequential: bool) -> list[bytes]:
        """Blocks ``start .. start + count - 1``: one charge of ``count``
        reads, the bytes and counters of a :meth:`read_block` of each.

        With storage tracing on, it is that per-block loop, so every
        read keeps its ``storage.device.read`` span.
        """
        if count <= 0:
            return []
        if self._instr is not None and self._instr.trace_storage:
            return [self.read_block(i, sequential) for i in range(start, start + count)]
        self._check_index(start)
        self._cost_model.charge("read", sequential, count)
        if self._instr is not None:
            self._instr.record_device_access(self._name, "read", sequential, count)
        get = self._blocks.get
        zero = self._zero
        return [get(i, zero) for i in range(start, start + count)]

    def write_block(self, index: int, data: bytes, sequential: bool) -> None:
        """Overwrite a block, charging one write access."""
        self._check_index(index)
        if len(data) != self.block_size:
            raise ValueError(
                f"block write must be exactly {self.block_size} bytes, got {len(data)}"
            )
        if self._instr is not None and self._instr.trace_storage:
            with self._instr.span(
                "storage.device.write",
                device=self._name,
                block=index,
                pattern="seq" if sequential else "random",
            ):
                self._cost_model.charge("write", sequential)
            self._instr.record_device_access(self._name, "write", sequential)
        else:
            self._cost_model.charge("write", sequential)
            if self._instr is not None:
                self._instr.record_device_access(self._name, "write", sequential)
        self._blocks[index] = bytes(data)

    def peek_block(self, index: int) -> bytes:
        """Read block contents without charging any I/O (test/debug aid)."""
        self._check_index(index)
        return self._blocks.get(index, self._zero)

    def poke_block(self, index: int, data: bytes) -> None:
        """Overwrite a block without charging I/O (cache hit / bookkeeping)."""
        self._check_index(index)
        if len(data) != self.block_size:
            raise ValueError(
                f"block write must be exactly {self.block_size} bytes, got {len(data)}"
            )
        self._blocks[index] = bytes(data)

    def discard(self, index: int) -> None:
        """Drop a block without any I/O charge (logical truncation)."""
        self._check_index(index)
        self._blocks.pop(index, None)

    def discard_from(self, first_index: int) -> None:
        """Drop every block at or beyond ``first_index``."""
        self._check_index(first_index)
        for block in [b for b in self._blocks if b >= first_index]:
            del self._blocks[block]

    @staticmethod
    def _check_index(index: int) -> None:
        if index < 0:
            raise ValueError(f"block index must be non-negative, got {index}")

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return f"SimulatedBlockDevice({label} blocks={len(self._blocks)})"
