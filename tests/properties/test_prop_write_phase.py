"""The columnar uniform write phase against the per-pair one it replaced.

Array, Stack and Nomem write their final candidates through
``write_candidates``: Method S a window at a time, each window's
candidates read by ordinal in one ``read_records`` call, the records
written by ``SampleFile.write_records``.  The oracle is the write phase
they ran before: one ``(slot, reader.read(ordinal))`` pair at a time into
``write_sequential``, with Method S as the literal scalar scan, one
``random()`` per position.  Two identical worlds run the two, over a
candidate log, a full log and a staging table, behind buffer pools of 0
to 12 frames, with and without a shared crash budget and storage
tracing.  They must agree on the outcome, the sample and log images,
the ``AccessStats``, the ``PoolStats``, every device access in order,
the traced spans and, when the refresh ran to its end, the PRNG state.

A crashed refresh leaves the PRNG wherever its last draw was: the
windowed phase draws a whole window before writing it, the per-pair one
a uniform per position.  Recovery restores the pre-refresh checkpoint,
stream included (``repro.storage.fault_injection``), so only the devices
are compared after a crash.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kinds import UniformKind
from repro.core.logs import CandidateLogSource, FullLogSource
from repro.core.refresh.array import ArrayRefresh
from repro.core.refresh.nomem import NomemRefresh, survivor_indexes
from repro.core.refresh.stack import StackRefresh, select_final_indexes
from repro.dbms.sample_view import RowRecordCodec
from repro.dbms.staged_source import StagingLogSource
from repro.dbms.staging import ChangeRecordCodec, StagingTable
from repro.dbms.table import Row, Table
from repro.obs.api import Instrumentation
from repro.rng.mt19937 import WINDOW
from repro.rng.random_source import RandomSource
from repro.rng.sequential import selection_windows
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.bufferpool import BufferPool
from repro.storage.cost_model import CostModel
from repro.storage.fault_injection import CrashBudget, FaultInjectionDevice, InjectedCrash
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import BytesRecordCodec, IntRecordCodec

ALGORITHMS = {"array": ArrayRefresh, "stack": StackRefresh, "nomem": NomemRefresh}


def scalar_method_s(rng, n, total):
    """Method S as the literal scan: position ``j`` is selected when
    ``u * (M - j) < k``, one ``random()`` per position while ``k < M - j``,
    and nothing drawn once ``k`` is 0."""
    k = n
    for position in range(total):
        if k == 0:
            return
        left = total - position
        if k == left or rng.random() * left < k:
            k -= 1
            yield position


def reference_refresh(name, sample, source, rng):
    """The per-pair write phase each algorithm ran before going columnar."""
    total = source.count()
    if total == 0:
        return
    size = sample.size
    if name == "array":
        array = ArrayRefresh.assign_slots(rng, size, total)
        occupied = [slot for slot, index in enumerate(array) if index is not None]
        indexes = sorted(array[slot] for slot in occupied)
        reader = source.open_reader()
        pairs = zip(occupied, indexes)
    elif name == "stack":
        stack = select_final_indexes(rng, size, total)
        reader = source.open_reader()
        pairs = zip(scalar_method_s(rng, len(stack), size), reversed(stack))
    else:
        displaced, indexes = survivor_indexes(rng.spawn("nomem-geometric"), size, total)
        reader = source.open_reader()
        pairs = zip(scalar_method_s(rng, displaced, size), indexes)
    sample.write_sequential((slot, reader.read(index)) for slot, index in pairs)


class _Recorder:
    """A device wrapper that appends every access it passes down to a log
    shared by the world's devices."""

    def __init__(self, inner, name, log):
        self._inner, self._name, self._log = inner, name, log

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def read_block(self, index, sequential):
        self._log.append((self._name, "read", index, sequential))
        return self._inner.read_block(index, sequential)

    def read_blocks(self, start, count, sequential):
        self._log.extend(
            (self._name, "read", index, sequential) for index in range(start, start + count)
        )
        return self._inner.read_blocks(start, count, sequential)

    def write_block(self, index, data, sequential):
        self._log.append((self._name, "write", index, sequential))
        self._inner.write_block(index, data, sequential)


@dataclass
class World:
    sample: SampleFile
    source: object
    rng: RandomSource
    cost: CostModel
    instr: Instrumentation | None
    budget: CrashBudget
    pools: tuple
    bases: tuple
    accesses: list


def build_world(source_kind, size, arrivals, record_size, capacity, trace, seed):
    cost = CostModel()
    instr = Instrumentation(cost_model=cost, trace_storage=True) if trace else None
    budget = CrashBudget()
    accesses: list = []
    bases, pools = [], []

    def device(name):
        base = SimulatedBlockDevice(cost, name, instrumentation=instr)
        bases.append(base)
        faulty = FaultInjectionDevice(_Recorder(base, name, accesses), crash_budget=budget)
        pools.append(BufferPool(faulty, capacity, instrumentation=instr, name=name))
        return pools[-1]

    rng = RandomSource(seed=seed)
    before = size + seed % 50
    if source_kind == "staging":
        table = Table()
        for key in range(before):
            table.insert(key, -key)
        staging = StagingTable(table, LogFile(device("log"), ChangeRecordCodec(record_size)))
        for key in range(before, before + arrivals):
            table.insert(key, key * 10)
            if key % 3 == 0:
                table.update(key, -key)
        sample = SampleFile(device("sample"), RowRecordCodec(record_size), size)
        sample.initialize([Row(key, key) for key in range(size)])
        source = StagingLogSource(staging, size, before, rng)
    else:
        codec = IntRecordCodec(record_size)
        log = LogFile(device("log"), codec)
        log.append_many(range(10**6, 10**6 + arrivals))
        sample = SampleFile(device("sample"), codec, size)
        sample.initialize(list(range(size)))
        if source_kind == "candidate":
            source = CandidateLogSource(log)
        else:
            source = FullLogSource(log, size, before, rng)
    return World(sample, source, rng, cost, instr, budget, tuple(pools), tuple(bases),
                 accesses)


def run(world, refresh):
    try:
        refresh()
    except InjectedCrash as crash:
        return "crash", str(crash)
    return "ok", None


def state(world, outcome):
    spans = None
    if world.instr is not None:
        spans = [
            (span.name, sorted(span.attrs.items()), span.start_seconds, span.end_seconds)
            for span in world.instr.tracer.finished
        ]
    return {
        "outcome": outcome,
        "accesses": list(world.accesses),
        "access_stats": world.cost.stats.copy(),
        "pools": [pool.stats.as_dict() for pool in world.pools],
        "frames": [
            [(index, frame.data, frame.dirty) for index, frame in pool._frames.items()]
            for pool in world.pools
        ],
        "images": [base.snapshot_blocks() for base in world.bases],
        "spans": spans,
        "rng": (
            (world.rng.snapshot(), world.rng.spawn_count) if outcome[0] == "ok" else None
        ),
    }


def compare(name, source_kind, size, arrivals, record_size, capacity, trace, crash, seed):
    config = (source_kind, size, arrivals, record_size, capacity, trace, seed)
    new, old = build_world(*config), build_world(*config)
    for world in (new, old):
        if crash is not None:
            world.budget.arm(crash)
    algorithm = ALGORITHMS[name]()
    got = run(new, lambda: algorithm.refresh(new.sample, new.source, new.rng,
                                             UniformKind(size)))
    want = run(old, lambda: reference_refresh(name, old.sample, old.source, old.rng))
    assert state(new, got) == state(old, want)
    return got


class TestWritePhaseMatchesPerPairWrites:
    @given(
        name=st.sampled_from(sorted(ALGORITHMS)),
        source_kind=st.sampled_from(("candidate", "full", "staging")),
        size=st.integers(1, 700),
        arrivals=st.integers(0, 2500),
        record_size=st.sampled_from((32, 256)),
        capacity=st.integers(0, 12),
        trace=st.booleans(),
        crash=st.one_of(st.none(), st.integers(0, 40)),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_devices_stats_order_and_stream(
        self, name, source_kind, size, arrivals, record_size, capacity, trace, crash, seed
    ):
        compare(name, source_kind, size, arrivals, record_size, capacity, trace, crash,
                seed)

    @pytest.mark.parametrize("name", ["stack", "nomem"])
    @pytest.mark.parametrize("source_kind", ["candidate", "full"])
    def test_across_method_s_windows(self, name, source_kind):
        # More slots than a window of uniforms, and a crash late in the
        # write phase: partial blocks carry from one window to the next.
        size = 2 * WINDOW + 300
        for crash in (None, 40):
            compare(name, source_kind, size, 6000, 32, 4, False, crash, 5)

    def test_reads_between_writes(self):
        # 16 records a block: candidates of one sample block span several
        # log blocks, whose reads must fall between the sample writes.
        outcome = compare("stack", "candidate", 300, 400, 256, 0, True, None, 11)
        assert outcome == ("ok", None)


class TestMethodSWindows:
    @given(
        total=st.integers(0, 3 * WINDOW),
        fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32),
        offset=st.integers(0, 700),
    )
    @settings(max_examples=150, deadline=None)
    def test_windows_equal_the_scalar_scan(self, total, fraction, seed, offset):
        n = int(fraction * total)
        windowed, scalar = RandomSource(seed=seed), RandomSource(seed=seed)
        for source in (windowed, scalar):
            for _ in range(offset):
                source.randrange(2)
        windows = list(selection_windows(windowed, n, total))
        assert all(w.dtype == np.int64 and 0 < len(w) <= WINDOW for w in windows)
        positions = [p for window in windows for p in window.tolist()]
        assert positions == list(scalar_method_s(scalar, n, total))
        assert windowed.snapshot() == scalar.snapshot()

    def test_sparse_selection_crosses_windows(self):
        # Few selections over many positions: the windows run to WINDOW
        # uniforms, and only the last one gives a tail back.
        windowed, scalar = RandomSource(seed=3), RandomSource(seed=3)
        positions = np.concatenate(list(selection_windows(windowed, 5, 5 * WINDOW)))
        assert positions.tolist() == list(scalar_method_s(scalar, 5, 5 * WINDOW))
        assert positions[-1] > WINDOW
        assert windowed.snapshot() == scalar.snapshot()


class _SpyReader:
    def __init__(self, reader, sizes):
        self._reader, self._sizes = reader, sizes

    def read_records(self, ordinals, codec):
        self._sizes.append(len(ordinals))
        return self._reader.read_records(ordinals, codec)


class _SpySource:
    def __init__(self, source, sizes):
        self._source, self._sizes = source, sizes

    def count(self):
        return self._source.count()

    def open_reader(self):
        return _SpyReader(self._source.open_reader(), self._sizes)


def test_nomem_batch_reads_hold_at_most_a_window():
    # Nothing Psi-sized: more survivors than a window holds, read a
    # Method S window at a time.
    size = 3 * WINDOW
    world = build_world("candidate", size, 5 * size, 32, 0, False, 7)
    sizes: list = []
    result = NomemRefresh().refresh(
        world.sample, _SpySource(world.source, sizes), world.rng, UniformKind(size)
    )
    assert result.displaced > 2 * WINDOW
    assert len(sizes) > 2
    assert max(sizes) <= WINDOW
    assert sum(sizes) == result.displaced


def test_staging_reader_records_match_its_rows():
    # Interleaved updates spread the inserts over many log blocks; the
    # arrays come a run of rows at a time and encode what read() returns.
    world = build_world("staging", 40, 900, 256, 0, False, 2)
    source = world.source
    ordinals = np.arange(1, source.count() + 1, dtype=np.int64)
    arrays = list(source.open_reader().read_records(ordinals, world.sample.codec))
    assert len(arrays) > 1
    reader = source.open_reader()
    expected = [reader.read(int(ordinal)) for ordinal in ordinals]
    assert np.concatenate(arrays).tolist() == [(row.key, row.value) for row in expected]


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_write_phase_refuses_a_codec_without_records(name):
    codec = BytesRecordCodec()
    cost = CostModel()
    log = LogFile(SimulatedBlockDevice(cost, "log"), codec)
    log.append_many([b"new"] * 20)
    sample = SampleFile(SimulatedBlockDevice(cost, "sample"), codec, 8)
    sample.initialize([b"old"] * 8)
    with pytest.raises(TypeError, match="struct-backed"):
        ALGORITHMS[name]().refresh(
            sample, CandidateLogSource(log), RandomSource(seed=1), UniformKind(8)
        )
