"""Crash recovery: a recovered run is bit-identical to an uninterrupted one.

The scenario: maintenance runs, a checkpoint is taken (superblock + log
flush), the process dies, a new process re-attaches to the surviving disk
state and replays the post-checkpoint insertions.  Because the checkpoint
captures the exact PRNG state, the recovered maintainer makes the same
acceptance decisions, fills the same log, and refreshes to the same
sample as a run that never crashed.
"""

import pytest

from repro.core.maintenance import SampleMaintainer
from repro.core.refresh.nomem import NomemRefresh
from repro.core.refresh.stack import StackRefresh
from repro.core.reservoir import build_reservoir
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import IntRecordCodec
from repro.storage.superblock import DualSlotCheckpointStore

M = 100
R0 = 300
CRASH_AT = 700      # inserts before the checkpoint/crash
TOTAL = 1500        # inserts overall
SEED = 1234


def build(strategy, algorithm):
    rng = RandomSource(seed=SEED)
    cost = CostModel()
    codec = IntRecordCodec()
    sample = SampleFile(SimulatedBlockDevice(cost, "sample"), codec, M)
    initial, seen = build_reservoir(range(R0), M, rng)
    sample.initialize(initial)
    log_device = SimulatedBlockDevice(cost, "log")
    maintainer = SampleMaintainer(
        sample, rng, strategy=strategy, initial_dataset_size=seen,
        log=LogFile(log_device, codec), algorithm=algorithm, cost_model=cost,
    )
    return maintainer, sample, log_device, cost


@pytest.mark.parametrize(
    "strategy,algorithm_cls", [("candidate", StackRefresh),
                               ("candidate", NomemRefresh),
                               ("full", StackRefresh),
                               ("immediate", type(None))],
)
def test_recovered_run_equals_uninterrupted_run(strategy, algorithm_cls):
    algorithm = None if algorithm_cls is type(None) else algorithm_cls()

    # --- control: uninterrupted -------------------------------------------
    control, control_sample, _, _ = build(strategy, algorithm)
    control.insert_many(range(R0, R0 + TOTAL))
    control.refresh()

    # --- crashing run -------------------------------------------------------
    algorithm2 = None if algorithm_cls is type(None) else algorithm_cls()
    crashing, crash_sample, log_device, cost = build(strategy, algorithm2)
    crashing.insert_many(range(R0, R0 + CRASH_AT))
    store = DualSlotCheckpointStore(SimulatedBlockDevice(cost, "superblock"))
    store.save(crashing.checkpoint_state())
    del crashing  # the process dies; only device contents survive

    # --- recovery -------------------------------------------------------------
    checkpoint = store.load()
    assert checkpoint.inserts == CRASH_AT
    codec = IntRecordCodec()
    recovered = SampleMaintainer.from_checkpoint(
        checkpoint,
        crash_sample,
        log=None if strategy == "immediate" else LogFile(log_device, codec),
        algorithm=None if strategy == "immediate" else algorithm_cls(),
        cost_model=cost,
    )
    assert recovered.dataset_size == R0 + CRASH_AT
    recovered.insert_many(range(R0 + CRASH_AT, R0 + TOTAL))
    recovered.refresh()

    # --- bit-exact agreement ----------------------------------------------------
    assert crash_sample.peek_all() == control_sample.peek_all()
    assert recovered.stats.inserts == control.stats.inserts
    assert recovered.dataset_size == control.dataset_size


def test_checkpoint_log_flush_makes_log_durable():
    maintainer, _, log_device, cost = build("candidate", StackRefresh())
    maintainer.insert_many(range(R0, R0 + CRASH_AT))
    checkpoint = maintainer.checkpoint_state()
    # Everything the checkpoint counts is physically on the device.
    codec = IntRecordCodec()
    fresh = LogFile(log_device, codec)
    fresh.reopen(checkpoint.log_count)
    assert len(fresh) == checkpoint.log_count
    assert fresh.scan_all() == fresh.peek_all()


def test_recovery_after_refresh_continues_cleanly():
    # Checkpoint taken right after a refresh: empty log, later window
    # replays identically.
    maintainer, sample, log_device, cost = build("candidate", StackRefresh())
    maintainer.insert_many(range(R0, R0 + 500))
    maintainer.refresh()
    store = DualSlotCheckpointStore(SimulatedBlockDevice(cost, "superblock"))
    store.save(maintainer.checkpoint_state())

    control_continue, control_sample, _, _ = build("candidate", StackRefresh())
    control_continue.insert_many(range(R0, R0 + 500))
    control_continue.refresh()
    control_continue.insert_many(range(R0 + 500, R0 + 900))
    control_continue.refresh()

    checkpoint = store.load()
    assert checkpoint.log_count == 0
    recovered = SampleMaintainer.from_checkpoint(
        checkpoint, sample,
        log=LogFile(log_device, IntRecordCodec()),
        algorithm=StackRefresh(), cost_model=cost,
    )
    recovered.insert_many(range(R0 + 500, R0 + 900))
    recovered.refresh()
    assert sample.peek_all() == control_sample.peek_all()


def test_from_checkpoint_validates_sample_size():
    maintainer, _, log_device, cost = build("candidate", StackRefresh())
    checkpoint = maintainer.checkpoint_state()
    wrong = SampleFile(
        SimulatedBlockDevice(cost, "wrong"), IntRecordCodec(), M + 1
    )
    with pytest.raises(ValueError):
        SampleMaintainer.from_checkpoint(
            checkpoint, wrong, log=LogFile(log_device, IntRecordCodec()),
            algorithm=StackRefresh(),
        )


def test_from_checkpoint_requires_log_for_deferred():
    maintainer, sample, _, _ = build("candidate", StackRefresh())
    checkpoint = maintainer.checkpoint_state()
    with pytest.raises(ValueError):
        SampleMaintainer.from_checkpoint(checkpoint, sample, algorithm=StackRefresh())
