"""Crash-injection block device for failure testing.

Wraps any block device and kills the "process" -- by raising
:class:`InjectedCrash` -- after a configured number of block writes.
Everything written before the crash stays on the underlying device, and
nothing after it happens, which is exactly the torn state a power failure
leaves behind.

Used by the recovery tests to demonstrate the refresh algorithms'
*idempotence*: a deferred refresh reads only the log, never the sample
(stable elements are skipped unread; displaced ones are overwritten), so
re-running the same refresh from the same PRNG state writes the same
values to the same places.  A crash mid-refresh therefore needs no undo:
recover the pre-refresh checkpoint and simply run the refresh again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.storage.block_device import BlockDevice
from repro.storage.cost_model import CostModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs uses storage)
    from repro.obs.api import Instrumentation

__all__ = ["InjectedCrash", "CrashBudget", "FaultInjectionDevice"]


class InjectedCrash(RuntimeError):
    """The simulated process died mid-operation."""


class CrashBudget:
    """A write budget: private to one device, or shared by every device of
    one simulated process.

    A device's private budget (its ``writes_until_crash``) can only land a
    crash at a chosen point in *that device's* write sequence.
    Disaster-recovery drills need the opposite: one global, seeded crash
    point in the process's interleaved write stream across sample + log +
    manifest devices -- including points *inside* a multi-device group
    commit.  Every :class:`FaultInjectionDevice` of the process shares one
    budget; the Nth durable write overall raises, whichever device it
    lands on.

    The budget also records **commit windows**: a
    :class:`~repro.storage.group_commit.GroupCommitBarrier` brackets its
    flush phase with :meth:`begin_commit`/:meth:`end_commit`, and every
    window in which at least one write happened is kept as a
    ``(first_write_index, last_write_index)`` pair (1-based, inclusive).
    A probe run collects the windows; the drill then arms a crash point
    chosen *inside* one to exercise the mid-barrier case.
    """

    def __init__(self, writes_until_crash: int | None = None) -> None:
        if writes_until_crash is not None and writes_until_crash < 0:
            raise ValueError("writes_until_crash must be non-negative")
        self._remaining = writes_until_crash
        self.writes_seen = 0
        self.crashes = 0
        #: (first, last) 1-based write indexes inside group-commit flushes
        self.commit_windows: list[tuple[int, int]] = []
        self._commit_start: int | None = None

    @property
    def armed(self) -> bool:
        return self._remaining is not None

    def arm(self, writes_until_crash: int) -> None:
        if writes_until_crash < 0:
            raise ValueError("writes_until_crash must be non-negative")
        self._remaining = writes_until_crash

    def disarm(self) -> None:
        self._remaining = None

    def consume(self) -> bool:
        """Account one write; True when this write must crash instead."""
        if self._remaining is not None and self._remaining == 0:
            self.crashes += 1
            return True
        self.writes_seen += 1
        if self._remaining is not None:
            self._remaining -= 1
        return False

    # -- group-commit observation (see storage.group_commit) ----------------

    def begin_commit(self) -> None:
        self._commit_start = self.writes_seen

    def end_commit(self) -> None:
        start = self._commit_start
        self._commit_start = None
        if start is not None and self.writes_seen > start:
            self.commit_windows.append((start + 1, self.writes_seen))


class FaultInjectionDevice:
    """Decorates a block device; crashes after ``writes_until_crash`` writes.

    Every write draws from one :class:`CrashBudget`: the shared
    ``crash_budget`` of a simulated process when given -- so the drill's
    seeded crash point addresses the process's global write sequence (and
    can land mid-group-commit) -- else a private one armed with
    ``writes_until_crash`` (``None`` disarms: pass-through).  The count
    spans the device's lifetime, not a single operation, so a crash can
    land in the middle of any multi-block write sequence.
    """

    def __init__(
        self,
        inner: BlockDevice,
        writes_until_crash: int | None = None,
        instrumentation: "Instrumentation | None" = None,
        torn_writes: bool = False,
        crash_budget: CrashBudget | None = None,
    ) -> None:
        if crash_budget is None:
            crash_budget = CrashBudget(writes_until_crash)
        self._inner = inner
        self._budget = crash_budget
        self._instr = instrumentation
        self._torn = torn_writes
        self._crash_reported = False
        self.writes_survived = 0

    @property
    def block_size(self) -> int:
        return self._inner.block_size

    @property
    def cost_model(self) -> CostModel:
        return self._inner.cost_model

    @property
    def inner(self) -> BlockDevice:
        """The undecorated device -- the 'disk' that survives the crash."""
        return self._inner

    def arm(self, writes_until_crash: int, torn_writes: bool | None = None) -> None:
        """(Re-)arm the crash budget this device draws from; optionally
        toggle torn-write mode.  A shared budget is armed for every device
        of the process."""
        self._budget.arm(writes_until_crash)
        if torn_writes is not None:
            self._torn = torn_writes
        self._crash_reported = False

    def disarm(self) -> None:
        self._budget.disarm()
        self._crash_reported = False

    def read_block(self, index: int, sequential: bool) -> bytes:
        return self._inner.read_block(index, sequential)

    def read_blocks(self, start: int, count: int, sequential: bool) -> list[bytes]:
        return self._inner.read_blocks(start, count, sequential)

    def write_block(self, index: int, data: bytes, sequential: bool) -> None:
        if self._budget.consume():
            self._crash(index, data)
        self._inner.write_block(index, data, sequential)
        self.writes_survived += 1

    def _crash(self, index: int, data: bytes) -> None:
        """Report, optionally tear the in-flight block, and raise."""
        self._report_crash(index)
        if self._torn:
            # A torn write: power fails mid-block, leaving the first
            # half of the new data spliced onto the old tail.  The
            # landed fragment is not a charged, completed access --
            # CRC-protected readers (the superblock) must detect it.
            old = self._inner.peek_block(index)
            half = self._inner.block_size // 2
            self._inner.poke_block(index, data[:half] + old[half:])
        raise InjectedCrash(
            f"simulated crash after {self.writes_survived} writes"
        )

    def _report_crash(self, block_index: int) -> None:
        """Telemetry for the crash: one event + counter per armed trigger.

        A dead process keeps failing every subsequent write with the same
        armed budget; reporting only the first failure keeps the event
        stream one-crash-one-event, which is what recovery dashboards and
        the fault-injection tests key on.  Re-arming resets the latch.
        """
        if self._instr is None or self._crash_reported:
            return
        self._crash_reported = True
        device = getattr(self._inner, "name", "") or "faulty"
        self._instr.counter("device.crashes", labels={"device": device}).inc()
        self._instr.emit(
            "device.crash_injected",
            device=device,
            block_index=block_index,
            writes_survived=self.writes_survived,
        )

    def peek_block(self, index: int) -> bytes:
        return self._inner.peek_block(index)

    def poke_block(self, index: int, data: bytes) -> None:
        # Bookkeeping mutations (cache hits) are not disk writes; a crash
        # loses them anyway, so they do not consume the budget.
        self._inner.poke_block(index, data)

    def discard(self, index: int) -> None:
        self._inner.discard(index)

    def discard_from(self, first_index: int) -> None:
        self._inner.discard_from(first_index)
