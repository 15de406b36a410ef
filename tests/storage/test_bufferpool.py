"""BufferPool unit tests: passthrough fidelity, LRU, pins, readahead,
write coalescing, flush barriers, crash interaction."""

import pytest

from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.bufferpool import BufferPool, declare_scan, flush_barrier
from repro.storage.cost_model import CostModel
from repro.storage.fault_injection import FaultInjectionDevice, InjectedCrash


def make_device(name="dev"):
    return SimulatedBlockDevice(CostModel(), name=name)


def block(device, byte):
    return bytes([byte]) * device.block_size


def total_accesses(device):
    return device.cost_model.stats.total_accesses


class TestDisabledPool:
    """capacity=0: every call passes straight through, bit-identically."""

    def test_passthrough_matches_bare_device(self):
        bare = make_device("bare")
        inner = make_device("pooled")
        pool = BufferPool(inner, capacity=0)
        for target in (bare, pool):
            target.write_block(0, block(bare, 1), sequential=True)
            target.write_block(3, block(bare, 2), sequential=False)
            assert target.read_block(0, sequential=True) == block(bare, 1)
            target.poke_block(1, block(bare, 9))
            assert target.peek_block(1) == block(bare, 9)
            target.discard(3)
            target.discard_from(1)
        assert bare.cost_model.stats == inner.cost_model.stats
        assert pool.stats.hits == pool.stats.misses == 0
        assert not pool.enabled

    def test_flush_and_begin_scan_are_noops(self):
        pool = BufferPool(make_device(), capacity=0)
        pool.begin_scan(0, 100)
        pool.flush()
        assert pool.stats.flush_barriers == 0


class TestReadPath:
    def test_hit_serves_from_frame_without_device_charge(self):
        device = make_device()
        pool = BufferPool(device, capacity=4)
        device.poke_block(0, block(device, 7))
        assert pool.read_block(0, sequential=False) == block(device, 7)
        charged = total_accesses(device)
        assert pool.read_block(0, sequential=False) == block(device, 7)
        assert total_accesses(device) == charged
        assert (pool.stats.hits, pool.stats.misses) == (1, 1)

    def test_readahead_only_inside_declared_scan(self):
        device = make_device()
        for i in range(8):
            device.poke_block(i, block(device, i + 1))
        pool = BufferPool(device, capacity=16, readahead=4)
        # Sequential miss with no declared scan: no prefetch.
        pool.read_block(0, sequential=True)
        assert pool.stats.readahead_blocks == 0
        declare_scan(pool, 0, 6)
        pool.read_block(1, sequential=True)
        # Prefetch runs to min(window end, miss + readahead): blocks 2..5.
        assert pool.stats.readahead_blocks == 4
        charged = total_accesses(device)
        for i in range(2, 6):
            assert pool.read_block(i, sequential=True) == block(device, i + 1)
        assert total_accesses(device) == charged
        # Block 6 is outside the declared window: a real miss.
        pool.read_block(6, sequential=True)
        assert pool.stats.misses == 3  # blocks 0, 1, 6

    def test_random_miss_never_prefetches(self):
        device = make_device()
        pool = BufferPool(device, capacity=8, readahead=4)
        declare_scan(pool, 0, 8)
        pool.read_block(2, sequential=False)
        assert pool.stats.readahead_blocks == 0


class TestWritePath:
    def test_write_is_deferred_until_barrier(self):
        device = make_device()
        pool = BufferPool(device, capacity=4)
        pool.write_block(0, block(device, 5), sequential=False)
        assert total_accesses(device) == 0
        assert device.peek_block(0) != block(device, 5)
        # The pool itself always reads its own writes.
        assert pool.peek_block(0) == block(device, 5)
        assert pool.read_block(0, sequential=False) == block(device, 5)
        flush_barrier(pool)
        assert device.peek_block(0) == block(device, 5)
        assert device.cost_model.stats.random_writes == 1
        assert pool.stats.flushed_blocks == 1

    def test_coalescing_two_writes_one_device_access(self):
        device = make_device()
        pool = BufferPool(device, capacity=4)
        pool.write_block(0, block(device, 1), sequential=False)
        pool.write_block(0, block(device, 2), sequential=False)
        pool.write_block(0, block(device, 3), sequential=True)
        assert pool.stats.coalesced_writes == 2
        pool.flush()
        assert device.peek_block(0) == block(device, 3)
        # One write, classified as the LAST buffered write declared.
        assert device.cost_model.stats.seq_writes == 1
        assert device.cost_model.stats.random_writes == 0

    def test_flush_writes_back_in_ascending_block_order(self):
        device = make_device()
        pool = BufferPool(device, capacity=8)
        for index in (5, 1, 3):
            pool.write_block(index, block(device, index), sequential=True)
        order = []
        original = device.write_block

        def spy(index, data, sequential):
            order.append(index)
            original(index, data, sequential)

        device.write_block = spy
        pool.flush()
        assert order == [1, 3, 5]

    def test_second_barrier_charges_nothing(self):
        device = make_device()
        pool = BufferPool(device, capacity=4)
        pool.write_block(0, block(device, 1), sequential=True)
        pool.flush()
        charged = total_accesses(device)
        pool.flush()
        assert total_accesses(device) == charged
        assert pool.stats.flush_barriers == 2
        assert pool.stats.flushed_blocks == 1

    def test_poke_updates_frame_and_device_without_dirtying(self):
        device = make_device()
        pool = BufferPool(device, capacity=4)
        pool.read_block(0, sequential=False)
        pool.poke_block(0, block(device, 8))
        assert pool.peek_block(0) == block(device, 8)
        assert device.peek_block(0) == block(device, 8)
        assert pool.dirty_blocks == []


class TestEviction:
    def test_lru_evicts_least_recently_used(self):
        device = make_device()
        pool = BufferPool(device, capacity=2)
        pool.read_block(0, sequential=False)
        pool.read_block(1, sequential=False)
        pool.read_block(0, sequential=False)  # touch 0: 1 is now LRU
        pool.read_block(2, sequential=False)  # evicts 1
        assert pool.stats.evictions == 1
        charged = total_accesses(device)
        pool.read_block(0, sequential=False)  # still resident
        assert total_accesses(device) == charged
        pool.read_block(1, sequential=False)  # miss again
        assert total_accesses(device) == charged + 1

    def test_dirty_eviction_writes_back(self):
        device = make_device()
        pool = BufferPool(device, capacity=1)
        pool.write_block(0, block(device, 1), sequential=False)
        pool.read_block(5, sequential=False)  # evicts dirty block 0
        assert device.peek_block(0) == block(device, 1)
        assert pool.stats.flushed_blocks == 1
        assert device.cost_model.stats.random_writes == 1


class TestTruncationAndInvalidation:
    def test_discard_from_drops_frames_and_forwards(self):
        device = make_device()
        pool = BufferPool(device, capacity=8)
        for index in range(4):
            pool.write_block(index, block(device, index + 1), sequential=True)
        pool.flush()
        pool.write_block(2, block(device, 9), sequential=True)
        pool.discard_from(1)
        assert pool.dirty_blocks == []
        assert pool.frames_in_use == 1
        # Dropped dirty frame is abandoned, never written.
        assert device.peek_block(2) == b"\x00" * device.block_size
        assert device.peek_block(0) == block(device, 1)

    def test_invalidate_models_a_crash(self):
        device = make_device()
        pool = BufferPool(device, capacity=8)
        pool.write_block(0, block(device, 1), sequential=True)
        pool.flush()
        pool.write_block(1, block(device, 2), sequential=True)  # unflushed
        pool.invalidate()
        assert pool.frames_in_use == 0
        assert device.peek_block(0) == block(device, 1)  # barrier survived
        assert device.peek_block(1) == b"\x00" * device.block_size  # RAM lost


class TestCrashDuringBarrier:
    def test_mid_flush_crash_leaves_prefix_durable(self):
        device = make_device()
        faulty = FaultInjectionDevice(device, writes_until_crash=2)
        pool = BufferPool(faulty, capacity=8)
        for index in range(4):
            pool.write_block(index, block(device, index + 1), sequential=True)
        with pytest.raises(InjectedCrash):
            pool.flush()
        # Ascending order: blocks 0 and 1 landed, 2 and 3 did not.
        assert device.peek_block(0) == block(device, 1)
        assert device.peek_block(1) == block(device, 2)
        assert device.peek_block(2) == b"\x00" * device.block_size
        # The landed frames are clean, the rest still owe their write-back.
        assert pool.dirty_blocks == [2, 3]
        faulty.disarm()
        pool.flush()
        assert device.peek_block(3) == block(device, 4)
