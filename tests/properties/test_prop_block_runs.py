"""Property-based tests: a block run reads exactly as its per-block loop.

``read_blocks(start, count, sequential)`` is one call for what
``[read_block(i, sequential) for i in range(start, start + count)]``
does, through every device of the stack.  Two identical stacks run the
same random steps; one reads runs with ``read_blocks``, the other with
that loop, the oracle.  After every step the two must agree on the
returned bytes, the pool's :class:`PoolStats`, its frames (order, bytes
and dirty bits), the device's :class:`AccessStats` and block image, the
replication records captured so far, the instrumentation counters, and
the step at which an :class:`InjectedCrash` lands.
"""

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.obs.api import Instrumentation
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.bufferpool import BufferPool
from repro.storage.cost_model import CostModel
from repro.storage.fault_injection import FaultInjectionDevice, InjectedCrash
from repro.storage.replicated import ReplicatedDevice

BLOCKS = 24


@dataclass
class Stack:
    pool: BufferPool
    base: SimulatedBlockDevice
    replica: ReplicatedDevice | None
    cost: CostModel
    instr: Instrumentation | None


def _stack(capacity, readahead, crash_after, replicated, instrumented, trace):
    cost = CostModel()
    instr = (
        Instrumentation(cost_model=cost, trace_storage=trace) if instrumented else None
    )
    base = SimulatedBlockDevice(cost, "disk", instrumentation=instr)
    device = base
    replica = None
    if replicated:
        device = replica = ReplicatedDevice(device)
    if crash_after is not None:
        device = FaultInjectionDevice(device, writes_until_crash=crash_after)
    pool = BufferPool(device, capacity, readahead=readahead, instrumentation=instr)
    return Stack(pool, base, replica, cost, instr)


def _apply(stack, step, runs):
    """Run one step; the outcome is its result or the crash it raised."""
    pool = stack.pool
    op, *args = step
    try:
        if op == "read_blocks":
            start, count, sequential = args
            if runs:
                return "ok", pool.read_blocks(start, count, sequential)
            return "ok", [
                pool.read_block(i, sequential) for i in range(start, start + count)
            ]
        if op == "read":
            return "ok", pool.read_block(*args)
        if op == "write":
            index, fill, sequential = args
            pool.write_block(index, bytes([fill]) * pool.block_size, sequential)
        elif op == "begin_scan":
            pool.begin_scan(*args)
        elif op == "flush":
            pool.flush()
        else:
            pool.discard_from(*args)
    except InjectedCrash as crash:
        return "crash", str(crash)
    return "ok", None


def _state(stack):
    pool = stack.pool
    counters = None
    if stack.instr is not None:
        counters = sorted(
            (entry["name"], sorted(entry["labels"].items()), entry["value"])
            for entry in stack.instr.registry.snapshot()
            if "value" in entry
        )
    return {
        "pool": pool.stats.as_dict(),
        "frames": [
            (index, frame.data, frame.dirty, frame.write_sequential)
            for index, frame in pool._frames.items()
        ],
        "dirty": pool.dirty_blocks,
        "access": pool.cost_model.stats.copy(),
        "image": stack.base.snapshot_blocks(),
        "records": (
            None
            if stack.replica is None
            else (stack.replica.records_captured, list(stack.replica._pending))
        ),
        "counters": counters,
    }


_index = st.integers(0, BLOCKS - 1)
_run = st.tuples(
    st.just("read_blocks"), _index, st.integers(0, 16), st.booleans()
)
_steps = st.one_of(
    _run,
    _run,
    st.tuples(st.just("read"), _index, st.booleans()),
    st.tuples(st.just("write"), _index, st.integers(1, 255), st.booleans()),
    st.tuples(st.just("begin_scan"), _index, st.integers(0, BLOCKS)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("discard_from"), st.integers(0, BLOCKS)),
)


class TestBlockRuns:
    @given(
        capacity=st.integers(1, 12),
        readahead=st.integers(0, 8),
        crash_after=st.one_of(st.none(), st.integers(0, 30)),
        replicated=st.booleans(),
        instrumented=st.booleans(),
        trace=st.booleans(),
        steps=st.lists(_steps, max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_read_blocks_equals_the_per_block_loop(
        self, capacity, readahead, crash_after, replicated, instrumented, trace, steps
    ):
        config = (capacity, readahead, crash_after, replicated, instrumented, trace)
        runs, loop = _stack(*config), _stack(*config)
        for step in steps:
            assert _apply(runs, step, True) == _apply(loop, step, False), step
            assert _state(runs) == _state(loop), step

    def test_a_run_cut_short_hands_its_blocks_out_as_touched(self):
        """A request ending inside a readahead run leaves the blocks it
        was handed after the rest of the run, as the loop's touches do."""
        runs, loop = (_stack(8, 4, None, False, False, False) for _ in range(2))
        for stack, use_runs in ((runs, True), (loop, False)):
            stack.pool.begin_scan(0, 16)
            _apply(stack, ("read_blocks", 0, 3, True), use_runs)
        assert list(runs.pool._frames) == [0, 3, 4, 1, 2]
        assert _state(runs) == _state(loop)

    def test_a_dirty_victim_writes_back_between_the_reads(self):
        """A miss that must evict a dirty frame keeps the loop's order of
        reads and write-backs, so a crash there leaves the same charges:
        block 0 and its first readahead block are read before block 20's
        write-back crashes."""
        runs, loop = (_stack(2, 4, 0, True, False, False) for _ in range(2))
        for stack, use_runs in ((runs, True), (loop, False)):
            stack.pool.write_block(20, b"\x01" * stack.pool.block_size, True)
            stack.pool.begin_scan(0, 8)
            outcome = _apply(stack, ("read_blocks", 0, 8, True), use_runs)
            assert outcome[0] == "crash"
        assert _state(runs) == _state(loop)
        assert runs.cost.stats.seq_reads == 2
        assert runs.cost.stats.seq_writes == 0
