"""Superblock serialisation and the checkpoint store."""

import zlib

import pytest

from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.superblock import (
    CheckpointError,
    DualSlotCheckpointStore,
    MaintenanceCheckpoint,
    _CRC,
    _HEADER,
    _MT_WORDS,
)

#: header field positions, in ``_HEADER`` order
FIELD = {"sample_size": 4, "refreshes": 9, "position": 15}
_BODY = _HEADER.size + _MT_WORDS.size


def make_checkpoint(**overrides):
    rng = RandomSource(seed=77)
    for _ in range(100):
        rng.random()
    rng.reservoir_skip(10, 5000)  # populate the W auxiliary
    seed, spawn, state, w = MaintenanceCheckpoint.capture_rng(rng)
    fields = dict(
        strategy="candidate",
        sample_size=1000,
        dataset_size=5000,
        dataset_size_at_refresh=4000,
        log_count=123,
        inserts=4000,
        refreshes=3,
        pending_accept=5100,
        ops_since_refresh=17,
        rng_seed=seed,
        rng_spawn_count=spawn,
        rng_state=state,
        rng_w=w,
    )
    fields.update(overrides)
    return MaintenanceCheckpoint(**fields), rng


def reseal(data, **fields):
    """``data`` with header ``fields`` replaced and its CRC recomputed, so
    the block reaches the decoder's field checks."""
    header = list(_HEADER.unpack_from(data))
    for name, value in fields.items():
        header[FIELD[name]] = value
    body = _HEADER.pack(*header) + data[_HEADER.size : _BODY]
    return body + _CRC.pack(zlib.crc32(body)) + data[_BODY + _CRC.size :]


class TestSerialisation:
    def test_roundtrip(self):
        checkpoint, _ = make_checkpoint()
        data = checkpoint.to_bytes()
        assert len(data) == 4096
        assert MaintenanceCheckpoint.from_bytes(data) == checkpoint

    def test_roundtrip_without_pending_and_w(self):
        checkpoint, _ = make_checkpoint(pending_accept=None, rng_w=None)
        restored = MaintenanceCheckpoint.from_bytes(checkpoint.to_bytes())
        assert restored.pending_accept is None
        assert restored.rng_w is None

    def test_corruption_detected(self):
        checkpoint, _ = make_checkpoint()
        data = bytearray(checkpoint.to_bytes())
        data[100] ^= 0xFF
        with pytest.raises(CheckpointError, match="CRC"):
            MaintenanceCheckpoint.from_bytes(bytes(data))

    def test_bad_magic_detected(self):
        checkpoint, _ = make_checkpoint()
        data = bytearray(checkpoint.to_bytes())
        data[0:4] = b"XXXX"
        with pytest.raises(CheckpointError):
            MaintenanceCheckpoint.from_bytes(bytes(data))

    def test_short_block_detected(self):
        with pytest.raises(CheckpointError):
            MaintenanceCheckpoint.from_bytes(b"\x00" * 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_checkpoint(strategy="lazy")
        with pytest.raises(ValueError):
            make_checkpoint(log_count=-1)

    def test_restored_rng_continues_identically(self):
        checkpoint, original = make_checkpoint()
        restored = checkpoint.restore_rng()
        for _ in range(200):
            assert restored.random() == original.random()
        # Skips (which consume the W auxiliary) also agree.
        assert restored.reservoir_skip(10, 6000) == original.reservoir_skip(10, 6000)
        # Spawned children agree too (spawn counter was captured).
        assert restored.spawn("x").random() == original.spawn("x").random()


class TestCheckpointStore:
    def test_save_load_roundtrip(self):
        model = CostModel()
        store = DualSlotCheckpointStore(SimulatedBlockDevice(model, "super"))
        checkpoint, _ = make_checkpoint()
        store.save(checkpoint)
        assert model.stats.random_writes == 1
        assert store.load() == checkpoint
        assert model.stats.random_reads == 2  # recovery probes both slots

    def test_exists(self):
        store = DualSlotCheckpointStore(SimulatedBlockDevice(CostModel(), "super"))
        assert not store.exists()
        checkpoint, _ = make_checkpoint()
        store.save(checkpoint)
        assert store.exists()

    def test_rejects_negative_block(self):
        with pytest.raises(ValueError):
            DualSlotCheckpointStore(
                SimulatedBlockDevice(CostModel(), "s"), block_indexes=(0, -1)
            )
