"""The replica applier refuses a bad commit stream before it writes.

A replica is only ever the primary's checkpoint-boundary prefix
``1..applied_seq``.  Batches that arrive out of order, twice, or after a
dropped predecessor must raise :class:`ReplicationError` (a
``ValueError``) and leave every replica device byte-identical.

Out of scope: a batch whose payload or digest was tampered with in
transit.  Catching that at apply time would need a replica-side hash of
the whole image per batch -- the cost the incremental seal digest
removes from the commit path.  The DR drill's digest triple (primary
shadow, replica, recovered catalog) still catches it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.replication.applier import ReplicaApplier, ReplicationError
from repro.replication.link import ReplicationLink
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.replicated import BlockRecord

NAMES = ("s.log", "s.meta", "s.sample")
BATCHES = 6


def block(fill):
    return bytes([fill]) * 4096


def sealed_stream():
    """Six sealed, unshipped batches over three devices, several records
    per device per batch."""
    link = ReplicationLink(lag_budget=1e9)
    cost = CostModel()
    devices = [link.attach(SimulatedBlockDevice(cost, name), name) for name in NAMES]
    for seq in range(BATCHES):
        for offset, device in enumerate(devices):
            device.write_block(seq % 3, block(seq + offset), sequential=True)
            device.poke_block(seq % 3 + 1, block(seq + offset + 100))
        if seq % 2:
            devices[0].discard_from(1)
        link.seal(devices)
    assert len(link.history) == BATCHES
    return link.history


STREAM = sealed_stream()


def fresh_applier():
    applier = ReplicaApplier()
    for name in NAMES:
        applier.register(name)
    return applier


class TestTypedErrors:
    def test_replication_error_is_a_value_error(self):
        assert issubclass(ReplicationError, ValueError)

    @pytest.mark.parametrize(
        "order",
        [(2,), (1, 1), (1, 3), (1, 2, 2), (1, 2, 4), (1, 2, 3, 1)],
        ids=["first-skipped", "repeated", "gap", "repeated-later",
             "gap-later", "stale"],
    )
    def test_bad_sequence_raises_before_any_write(self, order):
        applier = fresh_applier()
        *good, bad = order
        for seq in good:
            applier.apply(STREAM[seq - 1])
        before = (applier.images(), applier.stats(), applier.cost_model.checkpoint())
        with pytest.raises(ReplicationError, match="out of order"):
            applier.apply(STREAM[bad - 1])
        after = (applier.images(), applier.stats(), applier.cost_model.checkpoint())
        assert after == before

    @given(op=st.text(max_size=12), index=st.integers(max_value=-1))
    @settings(max_examples=30, deadline=None)
    def test_block_record_refuses_bad_op_or_negative_index(self, op, index):
        if op not in ("write", "poke", "discard", "discard_from"):
            with pytest.raises(ValueError, match="unknown record op"):
                BlockRecord(op, 0)
        with pytest.raises(ValueError, match="non-negative"):
            BlockRecord("write", index)


class TestStreamFuzz:
    @given(feed=st.lists(st.integers(min_value=1, max_value=BATCHES), max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_reordered_repeated_and_dropped_batches(self, feed):
        """Feed any sequence of batch numbers: the in-order ones apply, every
        other one raises without touching the replica, and the replica
        always equals the primary's state at its last applied batch."""
        applier = fresh_applier()
        for seq in feed:
            batch = STREAM[seq - 1]
            if seq == applier.applied_seq + 1:
                applier.apply(batch)
                assert applier.digest() == batch.digest
                continue
            images = applier.images()
            stats = applier.stats()
            with pytest.raises(ReplicationError):
                applier.apply(batch)
            assert applier.images() == images
            assert applier.stats() == stats

