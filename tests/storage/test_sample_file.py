"""SampleFile: the disk-resident sample and its charging rules."""

import pytest

from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import SampleFile
from repro.storage.records import IntRecordCodec


def make(size=300):
    model = CostModel()
    sample = SampleFile(SimulatedBlockDevice(model, "sample"), IntRecordCodec(), size)
    return sample, model


class TestInitialize:
    def test_sequential_block_writes(self):
        sample, model = make(300)  # 128/block -> 3 blocks
        sample.initialize(list(range(300)))
        assert model.stats.seq_writes == 3
        assert model.stats.random_writes == 0
        assert sample.peek_all() == list(range(300))

    def test_partial_last_block(self):
        sample, model = make(130)
        sample.initialize(list(range(130)))
        assert model.stats.seq_writes == 2

    def test_size_must_match(self):
        sample, _ = make(10)
        with pytest.raises(ValueError):
            sample.initialize(list(range(9)))

    def test_size_must_be_positive(self):
        model = CostModel()
        with pytest.raises(ValueError):
            SampleFile(SimulatedBlockDevice(model, "s"), IntRecordCodec(), 0)


class TestRandomAccess:
    def test_write_random_charges_one_random_write(self):
        sample, model = make()
        sample.initialize(list(range(300)))
        mark = model.checkpoint()
        sample.write_random(200, -1)
        delta = model.since(mark)
        assert delta.random_writes == 1
        assert delta.total_accesses == 1  # no read charged before write
        assert sample.peek(200) == -1

    def test_consecutive_same_block_writes_coalesce(self):
        sample, model = make()
        sample.initialize(list(range(300)))
        mark = model.checkpoint()
        sample.write_random(10, -1)
        sample.write_random(11, -2)  # same block
        sample.write_random(200, -3)  # different block
        sample.write_random(12, -4)  # back: charged again
        assert model.since(mark).random_writes == 3
        assert sample.peek(11) == -2 and sample.peek(12) == -4

    def test_read_random_charges_and_caches(self):
        sample, model = make()
        sample.initialize(list(range(300)))
        mark = model.checkpoint()
        assert sample.read_random(5) == 5
        assert sample.read_random(6) == 6  # same block, cached
        assert sample.read_random(250) == 250
        assert model.since(mark).random_reads == 2

    def test_bounds_checked(self):
        sample, _ = make(10)
        with pytest.raises(IndexError):
            sample.write_random(10, 0)
        with pytest.raises(IndexError):
            sample.read_random(-1)


class TestSequentialWrite:
    def test_one_write_per_touched_block(self):
        sample, model = make(300)
        sample.initialize(list(range(300)))
        mark = model.checkpoint()
        # Elements in blocks 0 and 2; block 1 untouched.
        written = sample.write_sequential([(0, -1), (5, -2), (256, -3)])
        assert written == 2
        delta = model.since(mark)
        assert delta.seq_writes == 2
        assert delta.seq_reads == 0  # stable elements are never read
        assert sample.peek(5) == -2 and sample.peek(256) == -3
        assert sample.peek(130) == 130  # untouched block intact

    def test_requires_strictly_increasing_indexes(self):
        sample, _ = make()
        sample.initialize(list(range(300)))
        with pytest.raises(ValueError):
            sample.write_sequential([(5, 0), (5, 1)])
        with pytest.raises(ValueError):
            sample.write_sequential([(5, 0), (3, 1)])

    def test_empty_write_charges_nothing(self):
        sample, model = make()
        sample.initialize(list(range(300)))
        mark = model.checkpoint()
        assert sample.write_sequential([]) == 0
        assert model.since(mark).total_accesses == 0


class TestScan:
    def test_scan_yields_all_elements(self):
        sample, model = make(300)
        sample.initialize(list(range(300)))
        mark = model.checkpoint()
        assert list(sample.scan()) == list(range(300))
        assert model.since(mark).seq_reads == 3

    def test_scan_partial_block_stops_at_size(self):
        sample, _ = make(130)
        sample.initialize(list(range(130)))
        assert len(list(sample.scan())) == 130


class TestResize:
    def test_shrink_hides_tail(self):
        sample, _ = make(300)
        sample.initialize(list(range(300)))
        sample.resize(100)
        assert sample.size == 100
        assert len(list(sample.scan())) == 100
        with pytest.raises(IndexError):
            sample.peek(100)

    def test_cannot_grow_or_zero(self):
        sample, _ = make(10)
        sample.initialize(list(range(10)))
        with pytest.raises(ValueError):
            sample.resize(11)
        with pytest.raises(ValueError):
            sample.resize(0)


class TestCodecMismatch:
    def test_record_size_must_divide_block(self):
        model = CostModel()
        with pytest.raises(ValueError):
            SampleFile(
                SimulatedBlockDevice(model, "s"), IntRecordCodec(33), 10
            )
