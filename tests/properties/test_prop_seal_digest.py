"""Property: the link's incremental seal digest is the full image digest.

A seal re-packs only the devices it drained and re-hashes from the first
of them onward, reusing cached pieces and SHA-256 prefix states for the
rest.  Whatever the mix of writes, pokes, discards, truncations and late
attaches, every sealed digest must equal ``image_digest`` over the
primary's durable blocks, computed from scratch, and -- once the outbox
has shipped -- the replica's own digest.
"""

import struct

from hypothesis import given, settings, strategies as st

from repro.replication.link import ReplicationLink
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.replicated import (
    canonical_image,
    device_image,
    device_piece,
    image_digest,
)

#: attached at the start; "late" ones attach mid-stream, and "a.late"
#: sorts before every other name
EARLY = ("m.log", "m.meta", "m.sample", "t.sample")
LATE = ("a.late", "p.late", "z.late")


def block(fill):
    return bytes([fill]) * 4096


def reference_image(images):
    """The canonical format spelled out independently of the library."""
    out = b""
    for name in sorted(images):
        blocks = images[name]
        if not blocks:
            continue
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded)) + encoded
        out += struct.pack("<I", len(blocks))
        for index in sorted(blocks):
            out += struct.pack("<QI", index, len(blocks[index])) + blocks[index]
    return out


class Primary:
    """A link over bare simulated devices, checked after every seal."""

    def __init__(self):
        self.cost = CostModel()
        self.link = ReplicationLink(lag_budget=1e9)
        self.base = {}
        self.devices = {}
        for name in EARLY:
            self.attach(name)

    def attach(self, name):
        self.base[name] = SimulatedBlockDevice(self.cost, name)
        self.devices[name] = self.link.attach(self.base[name], name)

    def mutate(self, name, op, index, fill):
        device = self.devices[name]
        if op == "write":
            device.write_block(index, block(fill), sequential=fill % 2 == 0)
        elif op == "poke":
            device.poke_block(index, block(fill))
        elif op == "discard":
            device.discard(index)
        else:
            device.discard_from(index)

    def seal_and_check(self, ship):
        batch = self.link.seal(list(self.devices.values()))
        images = {name: device_image(dev) for name, dev in self.base.items()}
        full = canonical_image(images)
        assert full == b"".join(device_piece(n, images[n]) for n in sorted(images))
        assert full == reference_image(images)
        if batch is not None:
            assert batch.digest == image_digest(images)
        if ship:
            self.shipped_matches()
        return batch

    def shipped_matches(self):
        """Ship the outbox; the replica then hashes to the newest digest."""
        self.link.ship_all()
        if self.link.history:
            assert self.link.applier.digest() == self.link.history[-1].digest


mutation = st.tuples(
    st.sampled_from(EARLY),
    st.sampled_from(("write", "write", "poke", "discard", "discard_from")),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=255),
)
step = st.one_of(
    st.tuples(st.just("seal"), st.lists(mutation, max_size=6), st.booleans()),
    st.tuples(st.just("attach"), st.sampled_from(LATE), st.booleans()),
)


class TestIncrementalSealDigest:
    @given(steps=st.lists(step, min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_every_seal_digest_equals_the_full_digest(self, steps):
        primary = Primary()
        for kind, arg, ship in steps:
            if kind == "attach":
                if arg in primary.devices:
                    continue
                primary.attach(arg)
                # A late device is written at once, so it joins the image.
                primary.mutate(arg, "write", 0, len(primary.devices))
            else:
                for mutation in arg:
                    primary.mutate(*mutation)
            primary.seal_and_check(ship)
        primary.shipped_matches()

    def test_late_attach_sorting_before_every_device(self):
        primary = Primary()
        for name in EARLY:
            primary.mutate(name, "write", 0, 1)
        first = primary.seal_and_check(ship=True)
        primary.attach("a.late")
        # Attached but empty: the image, so the digest, is unchanged.
        primary.mutate("m.sample", "write", 1, 2)
        primary.mutate("m.sample", "discard", 1, 0)
        assert primary.seal_and_check(ship=True).digest == first.digest
        primary.mutate("a.late", "write", 3, 9)
        primary.mutate("t.sample", "write", 3, 9)
        assert primary.seal_and_check(ship=True).digest != first.digest

    def test_device_emptied_by_discard_from_drops_out(self):
        primary = Primary()
        primary.mutate("m.log", "write", 0, 5)
        primary.mutate("m.log", "write", 2, 6)
        primary.mutate("t.sample", "write", 0, 7)
        primary.seal_and_check(ship=True)
        primary.mutate("m.log", "discard_from", 0, 0)
        batch = primary.seal_and_check(ship=True)
        assert batch.digest == image_digest({"t.sample": {0: block(7)}})

    def test_several_devices_touched_in_one_seal(self):
        primary = Primary()
        primary.seal_and_check(ship=False)
        for round_ in range(4):
            for offset, name in enumerate(EARLY[round_ % 2 :]):
                primary.mutate(name, "write", round_, round_ * 10 + offset)
            batch = primary.seal_and_check(ship=round_ % 2 == 1)
            assert len({name for name, _ in batch.records}) >= 3
        primary.shipped_matches()
