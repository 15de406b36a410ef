"""Dual-slot checkpoint store: torn superblock writes must not lose state.

The failure scenario: power dies *during* the superblock write.  The
:class:`FaultInjectionDevice`'s torn-write mode splices the first half of
the new block onto the old tail, which the CRC rejects on read -- a
single superblock would have nothing valid left.  The dual-slot store
alternates slots, so the previous checkpoint always survives, and so it
does when a CRC-valid slot carries an out-of-range field.

The store remembers the bytes it last validated in each slot, so a save
decodes only a slot whose bytes changed; the memo tests pin that every
save still picks the target a full decode of both slots would pick.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.rng.mt19937 import MTState
from repro.storage.fault_injection import FaultInjectionDevice, InjectedCrash
from repro.storage.superblock import (
    CheckpointError,
    DualSlotCheckpointStore,
    MaintenanceCheckpoint,
)
from tests.storage.test_superblock import make_checkpoint, reseal

#: manifest kind indexes (``superblock._KINDS``) for resealed slots
WEIGHTED, WINDOW = 1, 2


def make_device():
    return SimulatedBlockDevice(CostModel(), "meta")


class TestDualSlotBasics:
    def test_save_load_roundtrip(self):
        store = DualSlotCheckpointStore(make_device())
        checkpoint, _ = make_checkpoint()
        assert not store.exists()
        store.save(checkpoint)
        assert store.exists()
        assert store.load() == checkpoint

    def test_alternates_slots_and_keeps_newest(self):
        device = make_device()
        store = DualSlotCheckpointStore(device)
        first, _ = make_checkpoint(inserts=100)
        second, _ = make_checkpoint(inserts=200)
        third, _ = make_checkpoint(inserts=300)
        store.save(first)
        store.save(second)
        # Both slots now valid and distinct: first in slot 0, second in 1.
        assert MaintenanceCheckpoint.from_bytes(device.peek_block(0)) == first
        assert MaintenanceCheckpoint.from_bytes(device.peek_block(1)) == second
        assert store.load() == second
        # The third save overwrites the *older* slot (0), not the newest.
        store.save(third)
        assert MaintenanceCheckpoint.from_bytes(device.peek_block(0)) == third
        assert MaintenanceCheckpoint.from_bytes(device.peek_block(1)) == second
        assert store.load() == third

    def test_generation_order_uses_refreshes_as_tiebreak(self):
        store = DualSlotCheckpointStore(make_device())
        early, _ = make_checkpoint(inserts=500, refreshes=1)
        late, _ = make_checkpoint(inserts=500, refreshes=2)
        store.save(early)
        store.save(late)
        assert store.load() == late

    def test_load_without_any_checkpoint_raises(self):
        store = DualSlotCheckpointStore(make_device())
        with pytest.raises(CheckpointError):
            store.load()

    def test_rejects_bad_slots(self):
        with pytest.raises(ValueError):
            DualSlotCheckpointStore(make_device(), block_indexes=(1, 1))
        with pytest.raises(ValueError):
            DualSlotCheckpointStore(make_device(), block_indexes=(-1, 0))

    def test_save_costs_one_random_write(self):
        device = make_device()
        store = DualSlotCheckpointStore(device)
        checkpoint, _ = make_checkpoint()
        before = device.cost_model.checkpoint()
        store.save(checkpoint)
        delta = device.cost_model.since(before)
        assert delta.random_writes == 1
        assert delta.total_accesses == 1


class TestTornWriteRecovery:
    def _crashed_mid_save(self):
        """Save once cleanly, then crash with a torn write on the second."""
        inner = make_device()
        device = FaultInjectionDevice(inner, torn_writes=True)
        store = DualSlotCheckpointStore(device)
        first, _ = make_checkpoint(inserts=100)
        second, _ = make_checkpoint(inserts=200)
        store.save(first)
        device.arm(writes_until_crash=0)
        with pytest.raises(InjectedCrash):
            store.save(second)
        device.disarm()
        return store, first, inner

    def test_torn_write_corrupts_the_block(self):
        _, _, inner = self._crashed_mid_save()
        # Slot 1 now holds a half-new/half-old splice: CRC must fail.
        with pytest.raises(CheckpointError, match="CRC"):
            MaintenanceCheckpoint.from_bytes(inner.peek_block(1))

    def test_dual_slot_store_falls_back_to_previous(self):
        store, first, _ = self._crashed_mid_save()
        assert store.exists()
        assert store.load() == first

    def test_recovered_store_resumes_alternation(self):
        store, first, _ = self._crashed_mid_save()
        third, _ = make_checkpoint(inserts=300)
        store.save(third)  # must target the torn slot, not the survivor
        assert store.load() == third
        # Survivor still intact until the *next* save.
        fourth, _ = make_checkpoint(inserts=400)
        store.save(fourth)
        assert store.load() == fourth

    def test_repeated_torn_writes_keep_hitting_the_dead_slot(self):
        """save() never targets the newest *valid* slot, so even repeated
        torn writes all land on the already-dead slot and the survivor
        stays recoverable."""
        inner = make_device()
        device = FaultInjectionDevice(inner, torn_writes=True)
        store = DualSlotCheckpointStore(device)
        first, _ = make_checkpoint(inserts=100)
        second, _ = make_checkpoint(inserts=200)
        store.save(first)
        store.save(second)
        for attempt in (300, 400, 500):
            device.arm(writes_until_crash=0)
            with pytest.raises(InjectedCrash):
                store.save(make_checkpoint(inserts=attempt)[0])
        device.disarm()
        assert store.load() == second

    def test_both_slots_corrupt_raises(self):
        """Only out-of-band corruption of both slots loses everything."""
        device = make_device()
        store = DualSlotCheckpointStore(device)
        store.save(make_checkpoint(inserts=100)[0])
        store.save(make_checkpoint(inserts=200)[0])
        for slot in (0, 1):
            block = bytearray(device.peek_block(slot))
            block[100] ^= 0xFF
            device.poke_block(slot, bytes(block))
        with pytest.raises(CheckpointError) as err:
            store.load()
        assert "both slots torn" in str(err.value)

    def test_atomic_crash_mode_leaves_old_block_valid(self):
        """Without torn_writes the crash happens before any bytes land."""
        inner = make_device()
        device = FaultInjectionDevice(inner)  # torn_writes=False
        store = DualSlotCheckpointStore(device)
        first, _ = make_checkpoint(inserts=100)
        store.save(first)
        device.arm(writes_until_crash=0)
        with pytest.raises(InjectedCrash):
            store.save(make_checkpoint(inserts=200)[0])
        device.disarm()
        assert store.load() == first
        # The crash came before any bytes landed: slot 1 is still blank.
        assert inner.peek_block(1) == b"\x00" * inner.block_size


class TestOutOfRangeFieldRecovery:
    """A CRC-valid slot with a field no checkpoint can hold is refused
    like a torn one, and the store falls back to the other slot."""

    @pytest.mark.parametrize(
        "field",
        [
            {"sample_size": -5},
            {"refreshes": -1},
            {"position": 9999},
            {"position": -7},
            {"sample_size": 0},
            {"kind_param": 3},
            {"kind_threshold": 0.5},
            {"kind": WEIGHTED, "kind_param": 0},
            {"kind": WEIGHTED, "kind_param": -4},
            {"kind": WEIGHTED, "kind_param": 16, "kind_threshold": math.nan},
            {"kind": WEIGHTED, "kind_param": 16, "kind_threshold": -1.0},
            {"kind": WINDOW, "kind_param": 999},
            {"kind": WINDOW, "kind_param": 1000, "kind_threshold": 1.0},
        ],
        ids=["negative-count", "negative-refreshes", "mt-position-high",
             "mt-position-negative", "empty-sample", "uniform-param",
             "uniform-threshold", "weighted-mod-zero", "weighted-mod-negative",
             "weighted-threshold-nan", "weighted-threshold-negative",
             "window-not-capacity", "window-threshold"],
    )
    def test_bad_field_falls_back_to_older_slot(self, field):
        device = make_device()
        store = DualSlotCheckpointStore(device)
        first, _ = make_checkpoint(inserts=100)
        store.save(first)
        store.save(make_checkpoint(inserts=200)[0])
        bad = reseal(device.peek_block(1), **field)
        device.poke_block(1, bad)
        with pytest.raises(CheckpointError, match="invalid superblock field"):
            MaintenanceCheckpoint.from_bytes(bad)
        assert store.exists()
        assert store.load() == first
        store.save(make_checkpoint(inserts=300)[0])  # targets the bad slot
        assert device.peek_block(0) == first.to_bytes()


def full_decode_target(device, slots=(0, 1)):
    """The slot a save must target, from a fresh decode of both slots."""
    newest = None
    for slot in slots:
        try:
            checkpoint = MaintenanceCheckpoint.from_bytes(device.peek_block(slot))
        except CheckpointError:
            continue
        order = (checkpoint.inserts, checkpoint.refreshes)
        if newest is None or order > newest[1]:
            newest = (slot, order)
    return slots[1] if newest is not None and newest[0] == slots[0] else slots[0]


def save_and_locate(device, store, inserts):
    """Save a new checkpoint; return the slot it landed in."""
    checkpoint, _ = make_checkpoint(inserts=inserts)
    store.save(checkpoint)
    written = [s for s in (0, 1) if device.peek_block(s) == checkpoint.to_bytes()]
    assert len(written) == 1
    return written[0]


class TestSlotMemo:
    """Bytes changed behind the store's back must be decoded afresh."""

    def test_steady_state_save_decodes_nothing(self, monkeypatch):
        device = make_device()
        store = DualSlotCheckpointStore(device)
        for inserts in (100, 200):
            store.save(make_checkpoint(inserts=inserts)[0])
        decodes = []
        real = MaintenanceCheckpoint.from_bytes.__func__
        monkeypatch.setattr(
            MaintenanceCheckpoint,
            "from_bytes",
            classmethod(lambda cls, data: decodes.append(1) or real(cls, data)),
        )
        for inserts in (300, 400, 500):
            store.save(make_checkpoint(inserts=inserts)[0])
            assert store.exists()
        assert decodes == []
        assert store.load().inserts == 500  # load still decodes both slots
        assert len(decodes) == 2

    def test_torn_write_into_target_slot(self):
        inner = make_device()
        device = FaultInjectionDevice(inner, torn_writes=True)
        store = DualSlotCheckpointStore(device)
        for inserts in (100, 200, 300):
            store.save(make_checkpoint(inserts=inserts)[0])
        torn_slot = full_decode_target(inner)
        device.arm(writes_until_crash=0)
        with pytest.raises(InjectedCrash):
            store.save(make_checkpoint(inserts=400)[0])
        device.disarm()
        with pytest.raises(CheckpointError):
            MaintenanceCheckpoint.from_bytes(inner.peek_block(torn_slot))
        expected = full_decode_target(inner)
        assert expected == torn_slot
        assert save_and_locate(inner, store, 500) == expected

    @pytest.mark.parametrize("slot", [0, 1])
    @pytest.mark.parametrize("payload", ["newer", "corrupt", "older"])
    def test_poke_between_saves(self, slot, payload):
        device = make_device()
        store = DualSlotCheckpointStore(device)
        for inserts in (100, 200, 300):
            store.save(make_checkpoint(inserts=inserts)[0])
        if payload == "newer":
            data = make_checkpoint(inserts=10_000)[0].to_bytes()
        elif payload == "older":
            data = make_checkpoint(inserts=1)[0].to_bytes()
        else:
            block = bytearray(device.peek_block(slot))
            block[100] ^= 0xFF
            data = bytes(block)
        device.poke_block(slot, data)
        expected = full_decode_target(device)
        assert save_and_locate(device, store, 20_000) == expected

    @pytest.mark.parametrize("slot", [0, 1])
    def test_crc_valid_slot_with_out_of_range_field(self, slot):
        device = make_device()
        store = DualSlotCheckpointStore(device)
        for inserts in (100, 200, 300):
            store.save(make_checkpoint(inserts=inserts)[0])
        device.poke_block(slot, reseal(device.peek_block(slot), refreshes=-1))
        expected = full_decode_target(device)
        assert expected == slot  # the invalid slot is the one to overwrite
        assert save_and_locate(device, store, 400) == expected


@st.composite
def checkpoints(draw):
    sample_size = draw(st.integers(min_value=1, max_value=2**40))
    kind = draw(st.sampled_from(("uniform", "weighted", "window")))
    if kind == "weighted":
        param = draw(st.integers(min_value=1, max_value=2**62))
        threshold = draw(st.floats(min_value=0.0, allow_nan=False))
    else:
        param, threshold = (sample_size if kind == "window" else 0), 0.0
    counts = st.integers(min_value=0, max_value=2**62)
    words = random.Random(draw(st.integers(min_value=0))).getrandbits
    return MaintenanceCheckpoint(
        strategy=draw(st.sampled_from(("immediate", "candidate", "full"))),
        sample_size=sample_size,
        dataset_size=draw(counts),
        dataset_size_at_refresh=draw(counts),
        log_count=draw(counts),
        inserts=draw(counts),
        refreshes=draw(counts),
        pending_accept=draw(st.none() | counts),
        ops_since_refresh=draw(counts),
        rng_seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
        rng_spawn_count=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        rng_state=MTState(
            key=tuple(words(32) for _ in range(624)),
            position=draw(st.integers(min_value=0, max_value=624)),
        ),
        rng_w=draw(st.none() | st.floats(allow_nan=False)),
        kind_name=kind,
        kind_param=param,
        kind_threshold=threshold,
    )


class TestRoundTrip:
    @given(checkpoint=checkpoints())
    @settings(max_examples=60, deadline=None)
    def test_written_checkpoint_decodes_to_itself(self, checkpoint):
        """What ``save`` remembers for the slot it wrote is what a decode of
        that slot returns: the bytes validate and keep the generation."""
        restored = MaintenanceCheckpoint.from_bytes(checkpoint.to_bytes())
        assert (restored.inserts, restored.refreshes) == (
            checkpoint.inserts, checkpoint.refreshes
        )
        assert restored == checkpoint
