"""Crash *during* a refresh: idempotence makes redo-only recovery correct.

A deferred refresh writes displaced sample blocks in place, so a crash
halfway through leaves a torn sample.  No undo is needed: the refresh
never reads the sample (stable elements are skipped unread), so re-running
it from the pre-refresh checkpoint -- same log, same PRNG state -- writes
the same values to the same places and completes the torn operation.
"""

import pytest

from repro.core.maintenance import SampleMaintainer
from repro.core.refresh.array import ArrayRefresh
from repro.core.refresh.nomem import NomemRefresh
from repro.core.refresh.stack import StackRefresh
from repro.core.reservoir import build_reservoir
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.fault_injection import FaultInjectionDevice, InjectedCrash
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import IntRecordCodec
from repro.storage.superblock import DualSlotCheckpointStore

M, R0, INSERTS, SEED = 512, 1024, 4000, 9


def build(algorithm, fault_device=None):
    rng = RandomSource(seed=SEED)
    cost = CostModel()
    codec = IntRecordCodec()
    inner = SimulatedBlockDevice(cost, "sample")
    device = fault_device(inner) if fault_device else inner
    sample = SampleFile(device, codec, M)
    initial, seen = build_reservoir(range(R0), M, rng)
    sample.initialize(initial)
    log_device = SimulatedBlockDevice(cost, "log")
    maintainer = SampleMaintainer(
        sample, rng, strategy="candidate", initial_dataset_size=seen,
        log=LogFile(log_device, codec), algorithm=algorithm, cost_model=cost,
    )
    return maintainer, sample, device, log_device, cost


@pytest.mark.parametrize("algorithm_cls", [ArrayRefresh, StackRefresh, NomemRefresh])
@pytest.mark.parametrize("crash_after_writes", [0, 1, 2])
def test_crash_mid_refresh_redo_recovers(algorithm_cls, crash_after_writes):
    # Control: the refresh that should have happened.
    control, control_sample, _, _, _ = build(algorithm_cls())
    control.insert_many(range(R0, R0 + INSERTS))
    control.refresh()

    # Crashing run: checkpoint BEFORE the refresh, then die mid-write.
    fault = {}

    def wrap(inner):
        fault["device"] = FaultInjectionDevice(inner)
        return fault["device"]

    crashing, sample, device, log_device, cost = build(algorithm_cls(), wrap)
    crashing.insert_many(range(R0, R0 + INSERTS))
    store = DualSlotCheckpointStore(SimulatedBlockDevice(cost, "superblock"))
    store.save(crashing.checkpoint_state())
    # Arm the device: the initialize() writes are done; the next
    # `crash_after_writes` sample-block writes succeed, then the crash.
    device.arm(crash_after_writes)
    with pytest.raises(InjectedCrash):
        crashing.refresh()
    del crashing  # process gone; torn sample remains on the inner device

    # The sample really is torn relative to both before and after states
    # (unless the crash hit before any write landed).
    if crash_after_writes:
        assert sample.peek_all() != control_sample.peek_all()

    # Redo-only recovery: restore the checkpoint, run the refresh again.
    device.disarm()
    recovered = SampleMaintainer.from_checkpoint(
        store.load(), sample,
        log=LogFile(log_device, IntRecordCodec()),
        algorithm=algorithm_cls(), cost_model=cost,
    )
    recovered.refresh()
    assert sample.peek_all() == control_sample.peek_all()


def test_fault_device_passthrough_and_validation():
    cost = CostModel()
    inner = SimulatedBlockDevice(cost, "x")
    device = FaultInjectionDevice(inner)
    device.write_block(0, b"\x01" * 4096, sequential=True)
    assert device.read_block(0, sequential=True) == b"\x01" * 4096
    assert device.writes_survived == 1
    assert device.inner is inner
    assert device.block_size == 4096
    device.poke_block(1, b"\x02" * 4096)  # free, never crashes
    assert device.peek_block(1) == b"\x02" * 4096
    device.discard(1)
    device.discard_from(0)
    with pytest.raises(ValueError):
        FaultInjectionDevice(inner, writes_until_crash=-1)
    with pytest.raises(ValueError):
        device.arm(-1)


def test_armed_device_crashes_exactly_on_budget():
    device = FaultInjectionDevice(
        SimulatedBlockDevice(CostModel(), "x"), writes_until_crash=2
    )
    device.write_block(0, b"\x00" * 4096, sequential=True)
    device.write_block(1, b"\x00" * 4096, sequential=True)
    with pytest.raises(InjectedCrash):
        device.write_block(2, b"\x00" * 4096, sequential=True)
    assert device.writes_survived == 2
