"""LogFile.append_records: the columnar append against append_many.

Whole blocks are written from a zero-padded record array, the open tail
and the remainder go through ``append_many``; every observable effect --
device bytes, charges, the order and kind of each block write, length,
block count, contents -- must equal ``append_many(records.tolist())``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile
from repro.storage.records import (
    BytesRecordCodec,
    IntRecordCodec,
    TimestampedRecordCodec,
    WeightedRecordCodec,
)

CODECS = {
    "weighted": (WeightedRecordCodec, np.dtype([("f0", "<i8"), ("f1", "<f8")])),
    "timestamped": (TimestampedRecordCodec, np.dtype([("f0", "<i8"), ("f1", "<i8")])),
}


class RecordingDevice(SimulatedBlockDevice):
    """A simulated device that also lists every block write in order."""

    def __init__(self, model: CostModel) -> None:
        super().__init__(model, "log")
        self.writes: list[tuple[int, bytes, bool]] = []

    def write_block(self, index: int, data: bytes, sequential: bool) -> None:
        self.writes.append((index, bytes(data), sequential))
        super().write_block(index, data, sequential)


class Twin:
    """One log driven through ``append_records``, its twin through
    ``append_many`` of the same records as tuples."""

    def __init__(self, make_codec, record_size: int) -> None:
        self.make_codec = make_codec
        self.record_size = record_size
        self.sides = []
        for _ in range(2):
            model = CostModel()
            device = RecordingDevice(model)
            self.sides.append([LogFile(device, make_codec(record_size)), device, model])

    def append(self, records: np.ndarray) -> None:
        self.sides[0][0].append_records(records)
        self.sides[1][0].append_many(records.tolist())

    def reopen(self) -> None:
        """Flush, then re-attach a fresh LogFile to each device."""
        for side in self.sides:
            log, device, _ = side
            log.flush()
            side[0] = LogFile(device, self.make_codec(self.record_size))
            side[0].reopen(len(log))

    def each(self, action: str) -> None:
        for log, _, _ in self.sides:
            getattr(log, action)()

    def assert_same(self) -> None:
        (log, device, model), (twin, twin_device, twin_model) = self.sides
        assert device.writes == twin_device.writes
        assert device.snapshot_blocks() == twin_device.snapshot_blocks()
        assert model.stats == twin_model.stats
        assert len(log) == len(twin)
        assert log.block_count == twin.block_count
        assert log.peek_all() == twin.peek_all()


def records_of(dtype: np.dtype, seed: int, size: int) -> np.ndarray:
    """``size`` records of arbitrary bits in every field (NaN keys aside,
    which no list comparison can match)."""
    rng = np.random.default_rng(seed)
    records = np.zeros(size, dtype)
    for name in dtype.names:
        bits = rng.integers(0, 2**64, size, dtype=np.uint64).view(dtype[name])
        if dtype[name].kind == "f":
            bits[np.isnan(bits)] = -0.0
        records[name] = bits
    return records


STEPS = st.lists(
    st.one_of(
        st.integers(0, 600).map(lambda n: ("append", n)),
        st.sampled_from([("reopen", 0), ("truncate", 0), ("flush", 0)]),
    ),
    max_size=8,
)


@pytest.mark.parametrize("name", sorted(CODECS))
class TestAppendRecordsMatchesAppendMany:
    @given(
        start=st.integers(0, 300),
        steps=STEPS,
        record_size=st.sampled_from([16, 32, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_charges_and_contents(self, name, start, steps, record_size):
        make_codec, dtype = CODECS[name]
        twin = Twin(make_codec, record_size)
        # The starting tail offset: rows appended the plain way on both.
        for log, _, _ in twin.sides:
            log.append_many(records_of(dtype, 1000, start).tolist())
        twin.assert_same()
        for seed, (action, size) in enumerate(steps):
            if action == "append":
                twin.append(records_of(dtype, seed, size))
            elif action == "reopen":
                twin.reopen()
            else:
                twin.each(action)
            twin.assert_same()
        twin.each("flush")
        twin.assert_same()

    def test_whole_blocks_after_reopen_and_truncate(self, name):
        make_codec, dtype = CODECS[name]
        twin = Twin(make_codec, 32)
        rows = np.zeros(3 * 128 + 5, dtype)
        rows["f0"] = np.arange(len(rows))
        rows["f1"] = np.arange(len(rows)) * 3
        twin.append(rows[:70])
        twin.reopen()
        twin.append(rows)  # fills the reopened tail, two whole blocks, a rest
        twin.assert_same()
        twin.each("truncate")
        twin.append(rows[: 2 * 128])  # whole blocks only, after the rewind
        twin.assert_same()
        assert twin.sides[0][2].stats.random_writes == 2  # one seek per generation


class TestAppendRecordsRefusesOtherLayouts:
    @pytest.mark.parametrize(
        "dtype",
        [
            np.dtype([("f0", "<i8"), ("f1", "<i8")]),  # a timestamped row
            np.dtype([("f1", "<f8"), ("f0", "<i8")]),  # fields out of order
            np.dtype([("f0", "<i8")]),  # a field missing
            np.dtype([("f0", "<i4"), ("f1", "<f8")]),  # a narrower value
            np.dtype([("value", "<i8"), ("key", "<f8")]),  # other names
            np.dtype("<i8"),  # no fields at all
        ],
    )
    def test_wrong_fields_raise_value_error(self, dtype):
        model = CostModel()
        log = LogFile(SimulatedBlockDevice(model, "log"), WeightedRecordCodec())
        log.append((1, 0.5))
        with pytest.raises(ValueError, match="append_records"):
            log.append_records(np.zeros(300, dtype))
        assert len(log) == 1
        assert log.peek_all() == [(1, 0.5)]
        assert model.stats.total_accesses == 0

    @pytest.mark.parametrize("codec", [BytesRecordCodec, IntRecordCodec])
    def test_codec_without_tuple_values_raises_value_error(self, codec):
        # Bytes have no field layout; an int record's value is not the
        # 1-tuple its row would be.
        log = LogFile(SimulatedBlockDevice(CostModel(), "log"), codec())
        with pytest.raises(ValueError, match="append_records"):
            log.append_records(np.zeros(3, np.dtype([("f0", "<i8")])))
        assert len(log) == 0
