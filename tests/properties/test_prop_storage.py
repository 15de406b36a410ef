"""Property-based tests: codecs, files, and the closed-form math."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.refresh.math import (
    displacement_probability,
    expected_candidates,
    expected_candidates_exact,
    expected_displaced,
)
from repro.dbms.join_synopsis import JoinedRow, JoinedRowCodec
from repro.dbms.sample_view import RowRecordCodec
from repro.dbms.staging import Change, ChangeKind, ChangeRecordCodec
from repro.dbms.table import Row
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.bufferpool import BufferPool, declare_scan, flush_barrier
from repro.storage.cost_model import AccessStats, CostModel, DiskParameters
from repro.storage.files import SPLICE_BLOCKS, LogFile, SampleFile
from repro.storage.records import (
    BytesRecordCodec,
    IntRecordCodec,
    TimestampedRecordCodec,
    WeightedRecordCodec,
)

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
# Mostly representable, sometimes one bit too wide for a 64-bit field.
FIELD = st.one_of(INT64, st.integers(min_value=-(2**64), max_value=2**64))
KEY = st.floats(allow_nan=False)

# Every codec with values that either fit its layout or must be refused.
CODECS = {
    "int": (IntRecordCodec, FIELD),
    "bytes": (BytesRecordCodec, st.binary(max_size=34)),
    "weighted": (WeightedRecordCodec, st.tuples(FIELD, KEY)),
    "timestamped": (TimestampedRecordCodec, st.tuples(FIELD, FIELD)),
    "row": (RowRecordCodec, st.builds(Row, FIELD, FIELD)),
    "change": (
        ChangeRecordCodec,
        st.builds(
            Change, st.sampled_from(list(ChangeKind)), st.builds(Row, FIELD, FIELD)
        ),
    ),
    "joined": (JoinedRowCodec, st.builds(JoinedRow, FIELD, FIELD, FIELD)),
}


class TestCodecProperties:
    @given(value=INT64)
    @settings(max_examples=200)
    def test_int_codec_roundtrip(self, value):
        codec = IntRecordCodec()
        assert codec.decode(codec.encode(value)) == value

    @given(payload=st.binary(max_size=30))
    @settings(max_examples=200)
    def test_bytes_codec_roundtrip(self, payload):
        codec = BytesRecordCodec()
        assert codec.decode(codec.encode(payload)) == payload

    @given(key=INT64, value=INT64)
    @settings(max_examples=100)
    def test_row_codec_roundtrip(self, key, value):
        codec = RowRecordCodec()
        assert codec.decode(codec.encode(Row(key, value))) == Row(key, value)

    @given(kind=st.sampled_from(list(ChangeKind)), key=INT64, value=INT64)
    @settings(max_examples=100)
    def test_change_codec_roundtrip(self, kind, key, value):
        codec = ChangeRecordCodec()
        change = Change(kind, Row(key, value))
        assert codec.decode(codec.encode(change)) == change

    @pytest.mark.parametrize("name", sorted(CODECS))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_exact_roundtrip_or_typed_error(self, name, data):
        make, values = CODECS[name]
        codec = make()
        xs = data.draw(st.lists(values, max_size=10))
        try:
            records = [codec.encode(x) for x in xs]
        except ValueError:
            with pytest.raises(ValueError):
                codec.encode_block(xs)
            return
        block = codec.encode_block(xs)
        assert block == b"".join(records)
        decoded = codec.decode_block(block, len(xs))
        assert decoded == [codec.decode(record) for record in records]
        assert decoded == xs
        assert codec.encode_block(decoded) == block
        # Trailing bytes past ``count`` records are not read.
        assert codec.decode_block(block + b"\xff" * codec.record_size, len(xs)) == xs
        if xs:
            with pytest.raises(ValueError):
                codec.decode_block(block[:-1], len(xs))
        with pytest.raises(ValueError):
            codec.decode_block(block, len(xs) + 1)

    @pytest.mark.parametrize("name", sorted(set(CODECS) - {"bytes"}))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_dtype_reads_back_every_field(self, name, data):
        # The numpy view of a block, field for field, is the struct layout:
        # packed offsets (``Bqq`` puts its integers at 1 and 9), one item
        # per record.
        make, values = CODECS[name]
        codec = make()
        xs = data.draw(st.lists(values, max_size=10))
        try:
            block = codec.encode_block(xs)
        except ValueError:
            return
        assert codec.dtype.itemsize == codec.record_size
        view = np.frombuffer(block, codec.dtype)
        columns = [view[field].tolist() for field in codec.dtype.names]
        size = codec.record_size
        expected = [
            struct.unpack_from("<" + codec.FIELDS, block, i * size)
            for i in range(len(xs))
        ]
        assert list(zip(*columns)) == expected

    @given(
        payloads=st.lists(st.binary(max_size=30), min_size=1, max_size=10),
        data=st.data(),
    )
    @settings(max_examples=100)
    def test_corrupt_length_prefix_inside_block(self, payloads, data):
        codec = BytesRecordCodec()
        block = bytearray(codec.encode_block(payloads))
        victim = data.draw(st.integers(0, len(payloads) - 1))
        prefix = data.draw(st.integers(codec.record_size - 1, 0xFFFF))
        offset = victim * codec.record_size
        block[offset : offset + 2] = prefix.to_bytes(2, "little")
        with pytest.raises(ValueError, match="corrupt"):
            codec.decode_block(bytes(block), len(payloads))


class TestLogFileModel:
    """Model-based: a LogFile behaves like a Python list under
    append/flush/truncate/read, whatever the operation sequence."""

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("append"), st.integers(-1000, 1000)),
                st.tuples(st.just("flush"), st.none()),
                st.tuples(st.just("truncate"), st.none()),
            ),
            max_size=400,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_list_model(self, ops):
        log = LogFile(
            SimulatedBlockDevice(CostModel(), "log"), IntRecordCodec()
        )
        model = []
        for op, arg in ops:
            if op == "append":
                log.append(arg)
                model.append(arg)
            elif op == "flush":
                log.flush()
            else:
                log.truncate()
                model = []
        assert len(log) == len(model)
        assert log.peek_all() == model
        assert log.scan_all() == model


class TestSampleFileModel:
    @given(
        size=st.integers(min_value=1, max_value=300),
        writes=st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(-1000, 1000)),
            max_size=100,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_writes_match_list_model(self, size, writes):
        sample = SampleFile(
            SimulatedBlockDevice(CostModel(), "s"), IntRecordCodec(), size
        )
        model = list(range(size))
        sample.initialize(model)
        for index, value in writes:
            index %= size
            sample.write_random(index, value)
            model[index] = value
        assert sample.peek_all() == model
        assert list(sample.scan()) == model


# The three sample kinds' codecs (uniform, weighted, window) with values.
KIND_CODECS = {
    "uniform": (IntRecordCodec, INT64),
    "weighted": (WeightedRecordCodec, st.tuples(INT64, KEY)),
    "window": (TimestampedRecordCodec, st.tuples(INT64, INT64)),
}
SMALL_DISK = DiskParameters(block_size=256)  # 8 records of 32 bytes


class _OrderedDevice(SimulatedBlockDevice):
    """A simulated device that lists the blocks written, in order."""

    def __init__(self, cost: CostModel, name: str) -> None:
        super().__init__(cost, name)
        self.writes: list[int] = []

    def write_block(self, index: int, data: bytes, sequential: bool) -> None:
        self.writes.append(index)
        super().write_block(index, data, sequential)


def _device(cost: CostModel, pooled: bool):
    device = SimulatedBlockDevice(cost, "d")
    return BufferPool(device, capacity=4, readahead=2) if pooled else device


def _reference_scan(device, codec, blocks, count):
    """A scan by the Sec. 6.1 rules, one record per decode: declare the
    scan, then one sequential read per block."""
    size = codec.record_size
    declare_scan(device, 0, blocks)
    values = []
    for block in range(blocks):
        data = device.read_block(block, sequential=True)
        take = min(len(data) // size, count - len(values))
        values += [codec.decode(data[i * size : (i + 1) * size]) for i in range(take)]
    return values


def _reference_reads(log, codec, indices):
    """Forward log reads by the Sec. 6.1 rules, one record per decode:
    flush the tail, declare the scan, then one sequential read per new
    block."""
    log.flush()
    device = log.device
    declare_scan(device, 0, log.block_count)
    size = codec.record_size
    per_block = device.block_size // size
    values, current, data = [], -1, b""
    for index in indices:
        block, slot = divmod(index, per_block)
        if block != current:
            data = device.read_block(block, sequential=True)
            current = block
        values.append(codec.decode(data[slot * size : (slot + 1) * size]))
    return values


def _reference_write(sample, codec, items):
    """A sequential write by the Sec. 6.1 rules, one record per encode: one
    write per touched block."""
    device = sample.device
    size = codec.record_size
    per_block = device.block_size // size
    current, image = -1, None
    for index, value in items:
        block, slot = divmod(index, per_block)
        if block != current:
            if image is not None:
                device.write_block(current, bytes(image), sequential=True)
            current, image = block, bytearray(device.peek_block(block))
        image[slot * size : (slot + 1) * size] = codec.encode(value)
    if image is not None:
        device.write_block(current, bytes(image), sequential=True)


@st.composite
def ascending_runs(draw, count):
    """Disjoint ascending runs ``(first, last)`` of indexes below ``count``."""
    runs, start = [], 0
    steps = st.tuples(st.integers(0, 9), st.integers(1, 20))
    for gap, length in draw(st.lists(steps, max_size=6)):
        first = start + gap
        last = first + length - 1
        if last >= count:
            break
        runs.append((first, last))
        start = last + 1
    return runs


class TestScanPathModel:
    """Block-at-a-time scans (records or the value array), refresh reads
    and refresh writes return the list model's values and charge what a
    record-at-a-time scan, reader or writer by the Sec. 6.1 rules charges:
    partial last blocks and tails, shrunk samples and an enabled buffer
    pool."""

    @pytest.mark.parametrize("kind", sorted(KIND_CODECS))
    @given(
        data=st.data(),
        size=st.integers(min_value=1, max_value=60),
        pooled=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sample_scan_matches_model(self, kind, data, size, pooled):
        make, values = KIND_CODECS[kind]
        model = data.draw(st.lists(values, min_size=size, max_size=size))
        runs = []
        for _ in range(2):
            cost = CostModel(disk=SMALL_DISK)
            sample = SampleFile(_device(cost, pooled), make(), size)
            sample.initialize(model)
            runs.append((cost, sample))
        new_size = data.draw(st.integers(min_value=1, max_value=size))
        (cost, sample), (ref_cost, ref_sample) = runs
        sample.resize(new_size)
        model = model[:new_size]

        before = cost.stats.copy()
        assert sample.peek_all() == model
        assert cost.stats == before
        assert list(sample.scan()) == model
        charged = cost.stats - before

        ref_before = ref_cost.stats.copy()
        blocks = sample.block_count
        assert _reference_scan(ref_sample.device, make(), blocks, new_size) == model
        assert charged == ref_cost.stats - ref_before
        if not pooled:
            assert charged == AccessStats(seq_reads=blocks)

    @pytest.mark.parametrize("kind", sorted(KIND_CODECS))
    @given(
        data=st.data(),
        size=st.integers(min_value=1, max_value=60),
        pooled=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_value_scan_matches_model(self, kind, data, size, pooled):
        # The array scan returns the model's value column (field 0) and
        # charges what the record scan charges on a twin device.
        make, values = KIND_CODECS[kind]
        model = data.draw(st.lists(values, min_size=size, max_size=size))
        new_size = data.draw(st.integers(min_value=1, max_value=size))
        runs = []
        for _ in range(2):
            cost = CostModel(disk=SMALL_DISK)
            sample = SampleFile(_device(cost, pooled), make(), size)
            sample.initialize(model)
            sample.resize(new_size)
            runs.append((cost, sample))
        (cost, sample), (ref_cost, ref_sample) = runs
        model = model[:new_size]

        before = cost.stats.copy()
        column = sample.scan_values()
        charged = cost.stats - before
        ref_before = ref_cost.stats.copy()
        assert list(ref_sample.scan()) == model
        assert charged == ref_cost.stats - ref_before
        if pooled:
            assert sample.device.stats == ref_sample.device.stats
        else:
            assert charged == AccessStats(seq_reads=sample.block_count)

        expected = model if kind == "uniform" else [row[0] for row in model]
        assert column.shape == (new_size,)
        assert column.dtype == np.int64
        assert column.tolist() == expected

    @pytest.mark.parametrize("kind", sorted(KIND_CODECS))
    @given(
        data=st.data(),
        count=st.integers(min_value=0, max_value=60),
        pooled=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_log_scan_and_reopen_match_model(self, kind, data, count, pooled):
        make, values = KIND_CODECS[kind]
        model = data.draw(st.lists(values, min_size=count, max_size=count))
        runs = []
        for _ in range(2):
            cost = CostModel(disk=SMALL_DISK)
            log = LogFile(_device(cost, pooled), make())
            log.append_many(model)
            log.flush()
            runs.append((cost, log))
        (cost, log), (ref_cost, ref_log) = runs

        before = cost.stats.copy()
        assert log.peek_all() == model
        assert cost.stats == before
        assert log.scan_all() == model
        charged = cost.stats - before
        ref_before = ref_cost.stats.copy()
        reference = _reference_scan(ref_log.device, make(), ref_log.block_count, count)
        assert reference == model
        assert charged == ref_cost.stats - ref_before
        if not pooled:
            assert charged == AccessStats(seq_reads=log.block_count)

        # Recovery: a fresh LogFile over the same device reloads the tail.
        reopened = LogFile(log.device, make())
        before = cost.stats.copy()
        reopened.reopen(count)
        tail = count % reopened.elements_per_block
        assert reopened.peek_all() == model
        if not pooled:
            assert cost.stats - before == AccessStats(random_reads=int(tail > 0))
        extra = data.draw(st.lists(values, max_size=10))
        reopened.append_many(extra)
        assert reopened.scan_all() == model + extra

    @pytest.mark.parametrize("kind", sorted(KIND_CODECS))
    @given(
        data=st.data(),
        count=st.integers(min_value=0, max_value=60),
        flushed=st.booleans(),
        pooled=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_log_reads_match_model(self, kind, data, count, flushed, pooled):
        make, values = KIND_CODECS[kind]
        model = data.draw(st.lists(values, min_size=count, max_size=count))
        subset = sorted(data.draw(st.sets(st.integers(0, count - 1)))) if count else []
        runs = data.draw(ascending_runs(count))
        run_indexes = [i for first, last in runs for i in range(first, last + 1)]

        def twin():
            cost = CostModel(disk=SMALL_DISK)
            log = LogFile(_device(cost, pooled), make())
            log.append_many(model)
            if flushed:
                log.flush()
            return cost, log

        def read_each(log):
            reader = log.open_sequential_reader()
            return [reader.read(index) for index in subset]

        for indexes, read in (
            (subset, read_each),
            (subset, lambda log: log.read_indexed_sorted(subset)),
            (run_indexes, lambda log: self._read_runs(log, runs)),
        ):
            (cost, log), (ref_cost, ref_log) = twin(), twin()
            assert read(log) == [model[i] for i in indexes]
            assert _reference_reads(ref_log, make(), indexes) == [model[i] for i in indexes]
            assert cost.stats == ref_cost.stats

    @staticmethod
    def _read_runs(log, runs):
        reader = log.open_sequential_reader()
        per_block = log.elements_per_block
        out = []
        for first, last in runs:
            index = first
            for chunk in reader.read_run(first, last):
                # One list per block touched, in order.
                assert chunk and (index + len(chunk) - 1) // per_block == index // per_block
                out += chunk
                index += len(chunk)
            assert index == last + 1
        return out

    def test_read_run_keeps_bounds_and_order(self):
        log = LogFile(SimulatedBlockDevice(CostModel(disk=SMALL_DISK)), IntRecordCodec())
        log.append_many(range(20))
        reader = log.open_sequential_reader()
        assert list(reader.read_run(3, 2)) == []
        assert [v for chunk in reader.read_run(2, 9) for v in chunk] == list(range(2, 10))
        with pytest.raises(ValueError):
            list(reader.read_run(9, 12))
        with pytest.raises(IndexError):
            list(reader.read_run(15, 20))
        assert reader.read(10) == 10

    @pytest.mark.parametrize("kind", sorted(KIND_CODECS))
    @given(
        data=st.data(),
        size=st.integers(min_value=1, max_value=60),
        pooled=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sequential_write_matches_model(self, kind, data, size, pooled):
        make, values = KIND_CODECS[kind]
        model = data.draw(st.lists(values, min_size=size, max_size=size))
        new_size = data.draw(st.integers(min_value=1, max_value=size))
        indexes = sorted(data.draw(st.sets(st.integers(0, new_size - 1))))
        items = [(index, data.draw(values)) for index in indexes]
        runs = []
        for _ in range(2):
            cost = CostModel(disk=SMALL_DISK)
            device = _device(cost, pooled)
            sample = SampleFile(device, make(), size)
            sample.initialize(model)
            sample.resize(new_size)
            runs.append((cost, device, sample))
        (cost, device, sample), (ref_cost, ref_device, ref_sample) = runs

        written = sample.write_sequential(iter(items))
        _reference_write(ref_sample, make(), items)
        assert written == len({index // sample.elements_per_block for index in indexes})
        blocks = -(-size // sample.elements_per_block)
        assert [device.peek_block(b) for b in range(blocks)] == [
            ref_device.peek_block(b) for b in range(blocks)
        ]
        assert cost.stats == ref_cost.stats
        flush_barrier(device)
        flush_barrier(ref_device)
        assert cost.stats == ref_cost.stats
        for index, value in items:
            model[index] = value
        assert sample.peek_all() == model[:new_size]


def _decoded(records, kind):
    """A record array's rows as the codec decodes them."""
    rows = records.tolist()
    return [row[0] for row in rows] if kind == "uniform" else rows


class TestRecordPrimitives:
    """The columnar file primitives against their decoding twins: the
    record scan against ``scan``, ``read_records`` against ``read_run``,
    ``write_records`` against ``write_sequential`` -- same rows, same
    device bytes, same :class:`AccessStats`."""

    @pytest.mark.parametrize("kind", sorted(KIND_CODECS))
    @given(
        data=st.data(),
        size=st.integers(min_value=1, max_value=60),
        pooled=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_record_scan_matches_scan(self, kind, data, size, pooled):
        make, values = KIND_CODECS[kind]
        model = data.draw(st.lists(values, min_size=size, max_size=size))
        new_size = data.draw(st.integers(min_value=1, max_value=size))
        runs = []
        for _ in range(2):
            cost = CostModel(disk=SMALL_DISK)
            sample = SampleFile(_device(cost, pooled), make(), size)
            sample.initialize(model)
            sample.resize(new_size)
            runs.append((cost, sample))
        (cost, sample), (ref_cost, ref_sample) = runs

        records = sample.scan_records()
        assert list(ref_sample.scan()) == model[:new_size]
        assert cost.stats == ref_cost.stats
        assert records.dtype == make().dtype
        assert _decoded(records, kind) == model[:new_size]
        # The records are the device's bytes, padding included.
        raw = b"".join(sample.device.peek_block(b) for b in range(sample.block_count))
        assert records.tobytes() == raw[: new_size * make().record_size]

    @pytest.mark.parametrize("kind", sorted(KIND_CODECS))
    @given(
        data=st.data(),
        count=st.integers(min_value=0, max_value=60),
        flushed=st.booleans(),
        pooled=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_read_records_matches_read_run(self, kind, data, count, flushed, pooled):
        make, values = KIND_CODECS[kind]
        model = data.draw(st.lists(values, min_size=count, max_size=count))
        runs = data.draw(ascending_runs(count))
        # A single read into the first run's block, when there is room
        # before it, checks that the reader's current block is shared.
        lead = runs[0][0] - 1 if runs and runs[0][0] > 0 else None

        def twin():
            cost = CostModel(disk=SMALL_DISK)
            log = LogFile(_device(cost, pooled), make())
            log.append_many(model)
            if flushed:
                log.flush()
            reader = log.open_sequential_reader()
            if lead is not None:
                assert reader.read(lead) == model[lead]
            return cost, reader

        (cost, reader), (ref_cost, ref_reader) = twin(), twin()
        for first, last in runs:
            records = reader.read_records(first, last)
            assert records.dtype == make().dtype
            expected = [row for chunk in ref_reader.read_run(first, last) for row in chunk]
            assert _decoded(records, kind) == expected == model[first : last + 1]
            assert cost.stats == ref_cost.stats
        assert len(reader.read_records(3, 2)) == 0

    @pytest.mark.parametrize("kind", sorted(KIND_CODECS))
    @given(
        data=st.data(),
        size=st.integers(min_value=1, max_value=60),
        consecutive=st.booleans(),
        pooled=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_write_records_matches_write_sequential(
        self, kind, data, size, consecutive, pooled
    ):
        make, values = KIND_CODECS[kind]
        codec = make()
        model = data.draw(st.lists(values, min_size=size, max_size=size))
        new_size = data.draw(st.integers(min_value=1, max_value=size))
        if consecutive:
            first = data.draw(st.integers(0, new_size - 1))
            last = data.draw(st.integers(first, new_size - 1))
            slots = list(range(first, last + 1))
        else:
            slots = sorted(data.draw(st.sets(st.integers(0, new_size - 1))))
        written = data.draw(st.lists(values, min_size=len(slots), max_size=len(slots)))
        packed = np.frombuffer(codec.encode_block(written), codec.dtype)
        # Fancy indexing leaves a structured copy's padding undefined:
        # only the fields may reach the device.
        records = packed[np.arange(len(packed))]
        runs = []
        for _ in range(2):
            cost = CostModel(disk=SMALL_DISK)
            device = _device(cost, pooled)
            sample = SampleFile(device, make(), size)
            sample.initialize(model)
            sample.resize(new_size)
            runs.append((cost, device, sample))
        (cost, device, sample), (ref_cost, ref_device, ref_sample) = runs

        blocks = sample.write_records(np.array(slots, dtype=np.int64), records)
        ref_blocks = ref_sample.write_sequential(
            zip(slots, codec.decode_block(packed.tobytes(), len(slots)))
        )
        assert blocks == ref_blocks
        every = range(-(-size // sample.elements_per_block))
        assert [device.peek_block(b) for b in every] == [ref_device.peek_block(b) for b in every]
        assert cost.stats == ref_cost.stats
        flush_barrier(device)
        flush_barrier(ref_device)
        assert cost.stats == ref_cost.stats

    @given(
        blocks=st.integers(1, 3 * SPLICE_BLOCKS),
        density=st.floats(0.1, 1.0),
        seed=st.integers(0, 2**32 - 1),
        pooled=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_write_records_splices_in_runs_of_blocks(self, blocks, density, seed, pooled):
        # More touched blocks than one splice holds: every block is
        # written once, in ascending order, with write_sequential's bytes.
        codec = IntRecordCodec()
        size = blocks * SMALL_DISK.block_size // codec.record_size
        chosen = np.random.default_rng(seed).random(size) < density
        slots = np.flatnonzero(chosen).tolist() or [size - 1]
        values = [-slot for slot in slots]
        runs = []
        for _ in range(2):
            cost = CostModel(disk=SMALL_DISK)
            base = _OrderedDevice(cost, "d")
            device = BufferPool(base, capacity=4, readahead=2) if pooled else base
            sample = SampleFile(device, codec, size)
            sample.initialize(list(range(size)))
            runs.append((cost, base, sample))
        (cost, base, sample), (ref_cost, ref_base, ref_sample) = runs
        records = np.frombuffer(codec.encode_block(values), codec.dtype)
        assert sample.write_records(np.array(slots), records) == (
            ref_sample.write_sequential(zip(slots, values))
        )
        assert base.writes == ref_base.writes
        assert cost.stats == ref_cost.stats
        assert sample.peek_all() == ref_sample.peek_all()

    def test_write_records_refuses_bad_input(self):
        codec = TimestampedRecordCodec()
        sample = SampleFile(SimulatedBlockDevice(CostModel(disk=SMALL_DISK)), codec, 20)
        sample.initialize([(i, i) for i in range(20)])
        records = np.zeros(2, codec.dtype)
        before = sample.peek_all()
        with pytest.raises(ValueError, match="strictly increasing"):
            sample.write_records([5, 5], records)
        with pytest.raises(ValueError, match="strictly increasing"):
            sample.write_records([6, 5], records)
        with pytest.raises(IndexError):
            sample.write_records([5, 20], records)
        with pytest.raises(ValueError, match="one .* record per slot"):
            sample.write_records([5], records)
        with pytest.raises(ValueError, match="one .* record per slot"):
            sample.write_records([5, 6], np.zeros(2, WeightedRecordCodec().dtype))
        assert sample.peek_all() == before
        assert sample.write_records([], records[:0]) == 0


class TestMathProperties:
    @given(
        m=st.integers(min_value=1, max_value=10_000),
        c=st.integers(min_value=0, max_value=100_000),
    )
    @settings(max_examples=200)
    def test_displacement_bounds(self, m, c):
        p = displacement_probability(m, c)
        assert 0.0 <= p <= 1.0
        psi = expected_displaced(m, c)
        assert 0.0 <= psi <= min(m, c) + 1e-9

    @given(
        m=st.integers(min_value=1, max_value=1000),
        r0=st.integers(min_value=1, max_value=10**6),
        n=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=200)
    def test_candidate_expectation_bounds_and_approximation(self, m, r0, n):
        if r0 < m:
            r0 = m
        exact = expected_candidates_exact(m, r0, n)
        approx = expected_candidates(m, r0, n)
        assert 0.0 <= exact <= n + 1e-9
        # Integral bounds of the harmonic tail: the exact sum lies within
        # one leading term below the logarithm.
        assert exact <= approx + 1e-6
        assert approx - exact <= m / r0 + 1e-6
