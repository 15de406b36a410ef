"""LogFile: append-only logs, rewind charging, forward readers."""

import pytest

from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile
from repro.storage.records import IntRecordCodec


def make():
    model = CostModel()
    log = LogFile(SimulatedBlockDevice(model, "log"), IntRecordCodec())
    return log, model


EPB = 128  # elements per block with 32-byte records


class TestAppend:
    def test_first_block_write_is_random_then_sequential(self):
        # The rewind seek of Sec. 6.2: one random I/O per log generation.
        log, model = make()
        for i in range(EPB * 3):
            log.append(i)
        assert model.stats.random_writes == 1
        assert model.stats.seq_writes == 2

    def test_no_io_until_block_fills(self):
        log, model = make()
        for i in range(EPB - 1):
            log.append(i)
        assert model.stats.total_accesses == 0
        log.append(-1)
        assert model.stats.total_accesses == 1

    def test_flush_writes_partial_block_once(self):
        log, model = make()
        for i in range(10):
            log.append(i)
        log.flush()
        log.flush()  # unchanged tail: no extra charge
        assert model.stats.random_writes == 1
        assert model.stats.seq_writes == 0

    def test_flush_empty_log_is_free(self):
        log, model = make()
        log.flush()
        assert model.stats.total_accesses == 0

    def test_append_after_flush_rewrites_tail_block(self):
        log, model = make()
        log.append(1)
        log.flush()
        for i in range(EPB):
            log.append(i)
        # tail block filled (rewritten) once more, sequential this time
        assert model.stats.random_writes == 1
        assert model.stats.seq_writes == 1

    def test_extend(self):
        """A batch append extends the log by its length."""
        log, _ = make()
        log.append_many(range(5))
        assert len(log) == 5


class TestTruncateAndReuse:
    def test_truncate_resets_and_next_write_pays_seek(self):
        log, model = make()
        for i in range(EPB):
            log.append(i)
        log.truncate()
        assert len(log) == 0
        for i in range(EPB):
            log.append(i)
        assert model.stats.random_writes == 2  # one per generation

    def test_truncate_discards_content(self):
        log, _ = make()
        log.append_many(range(10))
        log.truncate()
        log.append_many(range(100, 103))
        assert log.peek_all() == [100, 101, 102]


class TestReads:
    def test_scan_all_roundtrip_and_charges(self):
        log, model = make()
        log.append_many(range(EPB * 2 + 10))
        mark = model.checkpoint()
        assert log.scan_all() == list(range(EPB * 2 + 10))
        delta = model.since(mark)
        # flush (1 write for the partial tail) + 3 block reads
        assert delta.seq_reads == 3

    def test_read_indexed_sorted_charges_per_distinct_block(self):
        log, model = make()
        log.append_many(range(EPB * 4))
        mark = model.checkpoint()
        values = log.read_indexed_sorted([0, 1, EPB * 2, EPB * 3 + 5])
        assert values == [0, 1, EPB * 2, EPB * 3 + 5]
        assert model.since(mark).seq_reads == 3  # blocks 0, 2, 3

    def test_read_indexed_sorted_requires_ascending(self):
        log, _ = make()
        log.append_many(range(10))
        with pytest.raises(ValueError):
            log.read_indexed_sorted([3, 3])
        with pytest.raises(ValueError):
            log.read_indexed_sorted([5, 2])

    def test_read_indexed_sorted_bounds(self):
        log, _ = make()
        log.append_many(range(10))
        with pytest.raises(IndexError):
            log.read_indexed_sorted([10])

    def test_sequential_reader_matches_batch(self):
        log, model = make()
        log.append_many(range(EPB * 3))
        reader = log.open_sequential_reader()
        mark = model.checkpoint()
        values = [reader.read(i) for i in (0, 5, EPB, EPB * 2 + 1)]
        assert values == [0, 5, EPB, EPB * 2 + 1]
        assert model.since(mark).seq_reads == 3

    def test_sequential_reader_enforces_forward_order(self):
        log, _ = make()
        log.append_many(range(10))
        reader = log.open_sequential_reader()
        reader.read(4)
        with pytest.raises(ValueError):
            reader.read(4)
        with pytest.raises(IndexError):
            reader.read(999)

    def test_read_one_random_charges_random_read(self):
        log, model = make()
        log.append_many(range(EPB * 2))
        mark = model.checkpoint()
        assert log.read_one_random(EPB + 3) == EPB + 3
        assert model.since(mark).random_reads == 1

    def test_peek_is_free_even_for_buffered_tail(self):
        log, model = make()
        log.append_many(range(EPB + 7))
        mark = model.checkpoint()
        assert log.peek(EPB + 3) == EPB + 3  # still in the append buffer
        assert log.peek(5) == 5
        assert model.since(mark).total_accesses == 0
        with pytest.raises(IndexError):
            log.peek(EPB + 7)

    def test_block_count_includes_partial_tail(self):
        log, _ = make()
        assert log.block_count == 0
        log.append_many(range(EPB))
        assert log.block_count == 1
        log.append(0)
        assert log.block_count == 2


class TestReopen:
    def test_reopen_restores_count_and_tail(self):
        log, model = make()
        log.append_many(range(EPB + 50))
        log.flush()
        # "Crash": a fresh LogFile over the same device.
        fresh = LogFile(log._device, IntRecordCodec())
        mark = model.checkpoint()
        fresh.reopen(EPB + 50)
        # Tail reload costs one random read (the recovery seek).
        assert model.since(mark).random_reads == 1
        assert len(fresh) == EPB + 50
        assert fresh.peek_all() == list(range(EPB + 50))
        fresh.append(-1)
        assert fresh.peek_all() == list(range(EPB + 50)) + [-1]

    def test_reopen_block_aligned_log_costs_nothing(self):
        log, model = make()
        log.append_many(range(EPB * 2))
        fresh = LogFile(log._device, IntRecordCodec())
        mark = model.checkpoint()
        fresh.reopen(EPB * 2)
        assert model.since(mark).total_accesses == 0
        # Appends continue sequentially (same generation).
        fresh.append_many(range(EPB))
        assert model.since(mark).seq_writes == 1
        assert model.since(mark).random_writes == 0

    def test_reopen_empty_pays_seek_on_first_write(self):
        log, model = make()
        fresh = LogFile(log._device, IntRecordCodec())
        fresh.reopen(0)
        fresh.append_many(range(EPB))
        assert model.stats.random_writes == 1

    def test_reopen_requires_fresh_log(self):
        log, _ = make()
        log.append(1)
        with pytest.raises(RuntimeError):
            log.reopen(5)

    def test_reopen_rejects_negative(self):
        log, _ = make()
        fresh = LogFile(log._device, IntRecordCodec())
        with pytest.raises(ValueError):
            fresh.reopen(-1)


class TestAppendMany:
    """append_many charges the same device writes, in the same order, as a
    per-element append loop -- the batch ingestion path depends on it."""

    def test_matches_scalar_appends(self):
        for n in (0, 1, EPB - 1, EPB, EPB + 1, EPB * 3 + 17):
            batch_log, batch_model = make()
            scalar_log, scalar_model = make()
            batch_log.append_many(list(range(n)))
            for i in range(n):
                scalar_log.append(i)
            assert batch_log.peek_all() == scalar_log.peek_all()
            assert batch_model.stats == scalar_model.stats, f"n={n}"

    def test_matches_scalar_across_chunked_calls(self):
        batch_log, batch_model = make()
        scalar_log, scalar_model = make()
        chunks = [0, 1, EPB - 1, 3, EPB * 2, 5]
        value = 0
        for size in chunks:
            batch_log.append_many(list(range(value, value + size)))
            value += size
        for i in range(value):
            scalar_log.append(i)
        assert batch_log.peek_all() == scalar_log.peek_all()
        assert batch_model.stats == scalar_model.stats

    def test_flush_after_batch_matches_scalar(self):
        batch_log, batch_model = make()
        scalar_log, scalar_model = make()
        batch_log.append_many(list(range(EPB + 10)))
        batch_log.flush()
        for i in range(EPB + 10):
            scalar_log.append(i)
        scalar_log.flush()
        assert batch_model.stats == scalar_model.stats

    def test_extend_delegates_to_append_many(self):
        """A batch append over a fresh log pays the rewind seek once, then
        one sequential write per further full block; the tail stays
        buffered."""
        log, model = make()
        log.append_many(range(EPB * 2 + 3))
        assert len(log) == EPB * 2 + 3
        assert model.stats.random_writes == 1  # rewind seek, first block
        assert model.stats.seq_writes == 1

    def test_accepts_tuples_and_iterators(self):
        log, _ = make()
        log.append_many((1, 2, 3))
        log.append_many(iter([4, 5]))
        assert log.peek_all() == [1, 2, 3, 4, 5]
