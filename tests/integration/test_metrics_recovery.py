"""Telemetry survives crash/recover: counters and gauges resume exactly.

``SampleMaintainer.checkpoint_state()`` records the lifetime insert and
refresh totals; ``from_checkpoint(..., instrumentation=...)`` must
re-establish them in a *fresh* metrics registry (the crashed process's
registry died with it) and re-sync the staleness gauges from the
re-attached on-disk log, so post-recovery series continue where the
crashed process stopped instead of restarting from zero.
"""

from repro.core.maintenance import SampleMaintainer
from repro.core.refresh.stack import StackRefresh
from repro.core.reservoir import build_reservoir
from repro.obs import Instrumentation
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import IntRecordCodec
from repro.storage.superblock import DualSlotCheckpointStore

M = 100
R0 = 300
CRASH_AT = 700
SEED = 77


def build(instr):
    rng = RandomSource(seed=SEED)
    cost = CostModel()
    codec = IntRecordCodec()
    sample = SampleFile(SimulatedBlockDevice(cost, "sample"), codec, M)
    initial, seen = build_reservoir(range(R0), M, rng)
    sample.initialize(initial)
    log_device = SimulatedBlockDevice(cost, "log")
    maintainer = SampleMaintainer(
        sample, rng, strategy="candidate", initial_dataset_size=seen,
        log=LogFile(log_device, codec), algorithm=StackRefresh(),
        cost_model=cost, instrumentation=instr,
    )
    return maintainer, sample, log_device, cost


def counter_value(instr, name):
    return instr.counter(name, {"strategy": "candidate"}).value


def test_metrics_and_pending_gauge_survive_crash_recover_roundtrip():
    instr = Instrumentation()
    maintainer, sample, log_device, cost = build(instr)
    maintainer.insert_many(range(R0, R0 + 400))
    maintainer.refresh()
    maintainer.insert_many(range(R0 + 400, R0 + CRASH_AT))

    pre_inserts = counter_value(instr, "maintenance.inserts")
    pre_refreshes = counter_value(instr, "maintenance.refreshes")
    pre_pending = instr.gauge("sample.pending_log_elements").value
    pre_log_blocks = instr.gauge("log.blocks").value
    assert pre_inserts == CRASH_AT
    assert pre_refreshes == 1
    assert pre_pending == maintainer.pending_log_elements > 0

    store = DualSlotCheckpointStore(SimulatedBlockDevice(cost, "superblock"))
    store.save(maintainer.checkpoint_state())
    # checkpoint_state() flushes the log tail, which can round the block
    # gauge up; capture the post-flush reading as the durable truth.
    pre_log_blocks = instr.gauge("log.blocks").value
    del maintainer, instr  # the process (and its registry) dies

    # Recovery in a new process: fresh Instrumentation, same disk state.
    fresh = Instrumentation()
    recovered = SampleMaintainer.from_checkpoint(
        store.load(), sample,
        log=LogFile(log_device, IntRecordCodec()),
        algorithm=StackRefresh(), cost_model=cost, instrumentation=fresh,
    )
    assert counter_value(fresh, "maintenance.inserts") == pre_inserts
    assert counter_value(fresh, "maintenance.refreshes") == pre_refreshes
    assert fresh.gauge("sample.pending_log_elements").value == pre_pending
    assert fresh.gauge("log.blocks").value == pre_log_blocks

    # The restored counters keep counting, not restart.
    recovered.insert_many(range(R0 + CRASH_AT, R0 + CRASH_AT + 50))
    assert counter_value(fresh, "maintenance.inserts") == pre_inserts + 50
    recovered.refresh()
    assert counter_value(fresh, "maintenance.refreshes") == pre_refreshes + 1
    assert fresh.gauge("sample.pending_log_elements").value == 0


def test_recovered_gauges_match_reattached_log_without_prior_telemetry():
    # The crashed run was NOT instrumented; recovery attaches telemetry
    # anyway and the gauges must reflect the re-attached on-disk log.
    maintainer, sample, log_device, cost = build(None)
    maintainer.insert_many(range(R0, R0 + CRASH_AT))
    store = DualSlotCheckpointStore(SimulatedBlockDevice(cost, "superblock"))
    store.save(maintainer.checkpoint_state())
    pending = maintainer.pending_log_elements
    del maintainer

    fresh = Instrumentation()
    recovered = SampleMaintainer.from_checkpoint(
        store.load(), sample,
        log=LogFile(log_device, IntRecordCodec()),
        algorithm=StackRefresh(), cost_model=cost, instrumentation=fresh,
    )
    assert fresh.gauge("sample.pending_log_elements").value == pending
    assert counter_value(fresh, "maintenance.inserts") == CRASH_AT
    assert recovered.pending_log_elements == pending
