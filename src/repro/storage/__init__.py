"""Disk substrate: block devices, block-aligned files and cost accounting.

The paper's experimental methodology (Sec. 6.1) is: run every algorithm,
*count* its block-level sequential/random reads and writes, and weight the
counts with access times measured once on real hardware (0.094 ms per
sequential block, 8.45 ms per random read, 5.50 ms per random write; 4096-
byte blocks holding 128 32-byte elements).  This subpackage reproduces that
methodology:

* :mod:`~repro.storage.cost_model` -- disk parameters, access statistics
  and the count-to-seconds weighting;
* :mod:`~repro.storage.block_device` -- an in-memory block store that keeps
  the categorised counts while faithfully round-tripping data;
* :mod:`~repro.storage.files` -- :class:`SampleFile` and :class:`LogFile`,
  the two block-aligned on-disk structures every algorithm manipulates;
* :mod:`~repro.storage.real_disk` -- a real-file backend plus the
  access-time calibration that regenerates the Sec. 6.1 table;
* :mod:`~repro.storage.bufferpool` -- the one page cache between the
  files and any device (LRU, readahead, write coalescing with flush
  barriers); disabled by default for bit-exact paper accounting;
* :mod:`~repro.storage.fault_injection` -- crash injection; every faulty
  device draws from one :class:`CrashBudget`, private or process-wide;
* :mod:`~repro.storage.superblock` -- durable maintenance checkpoints in
  the dual-slot :class:`DualSlotCheckpointStore`;
* :mod:`~repro.storage.memory` -- main-memory accounting for Fig. 12.

Every backend -- simulated, real-disk, fault-injected, buffer-pooled --
satisfies the :class:`~repro.storage.block_device.BlockDevice` protocol,
and everything above the device layer is typed against that protocol, so
backends compose and interchange freely (see ``docs/storage.md``).
"""

from repro.storage.cost_model import (
    AccessStats,
    CostModel,
    DiskParameters,
    PAPER_DISK,
)
from repro.storage.block_device import BlockDevice, SimulatedBlockDevice
from repro.storage.bufferpool import (
    BufferPool,
    PoolStats,
    declare_scan,
    flush_barrier,
)
from repro.storage.fault_injection import (
    CrashBudget,
    FaultInjectionDevice,
    InjectedCrash,
)
from repro.storage.files import LogFile, SampleFile, SequentialLogReader
from repro.storage.group_commit import GroupCommitBarrier
from repro.storage.memory import MemoryReport
from repro.storage.real_disk import RealBlockDevice, calibrate_disk
from repro.storage.records import BytesRecordCodec, IntRecordCodec, RecordCodec
from repro.storage.replicated import (
    BlockRecord,
    ReplicatedDevice,
    apply_records,
    apply_to_image,
    base_device,
    canonical_image,
    clone_image,
    device_image,
    device_piece,
    image_digest,
    replicated_in,
)
from repro.storage.superblock import (
    CheckpointError,
    DualSlotCheckpointStore,
    MaintenanceCheckpoint,
)

__all__ = [
    "AccessStats",
    "CostModel",
    "DiskParameters",
    "PAPER_DISK",
    "BlockDevice",
    "SimulatedBlockDevice",
    "BufferPool",
    "PoolStats",
    "declare_scan",
    "flush_barrier",
    "RealBlockDevice",
    "calibrate_disk",
    "LogFile",
    "SampleFile",
    "SequentialLogReader",
    "MemoryReport",
    "IntRecordCodec",
    "BytesRecordCodec",
    "RecordCodec",
    "MaintenanceCheckpoint",
    "DualSlotCheckpointStore",
    "CheckpointError",
    "FaultInjectionDevice",
    "InjectedCrash",
    "CrashBudget",
    "GroupCommitBarrier",
    "ReplicatedDevice",
    "BlockRecord",
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
