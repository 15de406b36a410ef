"""Real-file block backend and access-time calibration.

Two jobs:

* :class:`RealBlockDevice` implements the same interface as
  :class:`~repro.storage.block_device.SimulatedBlockDevice` on top of an
  actual file, so the reference algorithms can be run against a real file
  system (integration tests do this at small scale);
* :func:`calibrate_disk` re-measures the Sec. 6.1 access-time table
  (sequential read/write, random read, random write per block) on the
  machine at hand and returns a
  :class:`~repro.storage.cost_model.DiskParameters` to weight counts with.
  The paper measured 0.094 ms sequential, 8.45 ms random read, 5.50 ms
  random write on a 7 200 RPM IDE disk; modern SSDs compress the gap but
  keep the ordering.
"""

from __future__ import annotations

# This module's whole job is to time real hardware and feed the measured
# access times INTO the cost model; wall-clock reads here are calibration,
# not accounting.
# repro-lint: disable-file=TIME001

import os
import time
from dataclasses import dataclass

from repro.storage.cost_model import CostModel, DiskParameters

__all__ = ["RealBlockDevice", "CalibrationResult", "calibrate_disk"]


class RealBlockDevice:
    """Block device over a real file.

    Access statistics are still charged through the cost model (with the
    caller-declared sequential/random classification), so reference runs on
    real files produce the same counters as simulated runs -- plus the
    bytes actually hit the file system.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        cost_model: CostModel,
        instrumentation=None,
    ) -> None:
        self._path = os.fspath(path)
        self._cost_model = cost_model
        self._instr = instrumentation
        flags = os.O_RDWR | os.O_CREAT
        self._fd = os.open(self._path, flags, 0o644)

    @property
    def block_size(self) -> int:
        return self._cost_model.disk.block_size

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    @property
    def path(self) -> str:
        return self._path

    def read_block(self, index: int, sequential: bool) -> bytes:
        self._check_index(index)
        self._cost_model.charge("read", sequential)
        if self._instr is not None:
            self._instr.record_device_access(self._path, "read", sequential)
        data = os.pread(self._fd, self.block_size, index * self.block_size)
        return data.ljust(self.block_size, b"\x00")

    def read_blocks(self, start: int, count: int, sequential: bool) -> list[bytes]:
        """Blocks ``start .. start + count - 1`` with one ``pread``; each is
        charged, counted and zero-padded past end of file as
        :meth:`read_block` does."""
        if count <= 0:
            return []
        self._check_index(start)
        self._cost_model.charge("read", sequential, count)
        if self._instr is not None:
            self._instr.record_device_access(self._path, "read", sequential, count)
        size = self.block_size
        data = os.pread(self._fd, count * size, start * size)
        return [
            data[offset : offset + size].ljust(size, b"\x00")
            for offset in range(0, count * size, size)
        ]

    def write_block(self, index: int, data: bytes, sequential: bool) -> None:
        self._check_index(index)
        if len(data) != self.block_size:
            raise ValueError(
                f"block write must be exactly {self.block_size} bytes, got {len(data)}"
            )
        self._cost_model.charge("write", sequential)
        if self._instr is not None:
            self._instr.record_device_access(self._path, "write", sequential)
        os.pwrite(self._fd, data, index * self.block_size)

    def peek_block(self, index: int) -> bytes:
        self._check_index(index)
        data = os.pread(self._fd, self.block_size, index * self.block_size)
        return data.ljust(self.block_size, b"\x00")

    def poke_block(self, index: int, data: bytes) -> None:
        self._check_index(index)
        if len(data) != self.block_size:
            raise ValueError(
                f"block write must be exactly {self.block_size} bytes, got {len(data)}"
            )
        os.pwrite(self._fd, data, index * self.block_size)

    def discard(self, index: int) -> None:
        self._check_index(index)
        os.pwrite(self._fd, b"\x00" * self.block_size, index * self.block_size)

    def discard_from(self, first_index: int) -> None:
        self._check_index(first_index)
        os.ftruncate(self._fd, first_index * self.block_size)

    def sync(self) -> None:
        os.fsync(self._fd)

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "RealBlockDevice":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def _check_index(index: int) -> None:
        if index < 0:
            raise ValueError(f"block index must be non-negative, got {index}")


@dataclass(frozen=True)
class CalibrationResult:
    """Measured per-block access times, in milliseconds (the Sec. 6.1 table)."""

    seq_read_ms: float
    seq_write_ms: float
    random_read_ms: float
    random_write_ms: float
    blocks_measured: int
    block_size: int

    def as_disk_parameters(self, element_size: int = 32) -> DiskParameters:
        return DiskParameters(
            block_size=self.block_size,
            element_size=element_size,
            seq_read_ms=self.seq_read_ms,
            seq_write_ms=self.seq_write_ms,
            random_read_ms=self.random_read_ms,
            random_write_ms=self.random_write_ms,
        )


def calibrate_disk(
    path: str | os.PathLike,
    file_blocks: int = 4096,
    probes: int = 512,
    block_size: int = 4096,
    seed: int = 0x5EED,
) -> CalibrationResult:
    """Measure per-block access times on a scratch file.

    The paper measured a 1.6 GB sample file; callers choose ``file_blocks``
    to fit their patience.  Buffered I/O means page-cache effects make these
    numbers optimistic relative to the paper's cold-cache disk; the paper's
    own constants remain the defaults for all figures
    (:data:`repro.storage.cost_model.PAPER_DISK`).
    """
    if file_blocks < 2 or probes < 1:
        raise ValueError("need at least 2 blocks and 1 probe")
    probes = min(probes, file_blocks)
    payload = os.urandom(block_size)
    fd = os.open(os.fspath(path), os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        # Sequential write pass (also allocates the file).
        start = time.perf_counter()
        for block in range(file_blocks):
            os.pwrite(fd, payload, block * block_size)
        os.fsync(fd)
        seq_write_ms = (time.perf_counter() - start) * 1000.0 / file_blocks

        # Sequential read pass.
        start = time.perf_counter()
        for block in range(file_blocks):
            os.pread(fd, block_size, block * block_size)
        seq_read_ms = (time.perf_counter() - start) * 1000.0 / file_blocks

        # Deterministic pseudo-random probe positions (LCG; no numpy needed).
        positions = []
        state = seed & 0x7FFFFFFF
        for _ in range(probes):
            state = (1103515245 * state + 12345) & 0x7FFFFFFF
            positions.append(state % file_blocks)

        start = time.perf_counter()
        for block in positions:
            os.pread(fd, block_size, block * block_size)
        random_read_ms = (time.perf_counter() - start) * 1000.0 / probes

        start = time.perf_counter()
        for block in positions:
            os.pwrite(fd, payload, block * block_size)
        os.fsync(fd)
        random_write_ms = (time.perf_counter() - start) * 1000.0 / probes
    finally:
        os.close(fd)

    return CalibrationResult(
        seq_read_ms=seq_read_ms,
        seq_write_ms=seq_write_ms,
        random_read_ms=random_read_ms,
        random_write_ms=random_write_ms,
        blocks_measured=file_blocks,
        block_size=block_size,
    )
