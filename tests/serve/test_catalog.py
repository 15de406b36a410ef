"""The serving catalog: creation, manifests, crash recovery."""

import pytest

from repro.replication.link import ReplicationLink
from repro.storage.fault_injection import FaultInjectionDevice, InjectedCrash
from repro.storage.replicated import device_image
from repro.storage.superblock import CheckpointError, DualSlotCheckpointStore
from repro.serve.catalog import SampleCatalog


def make_catalog(samples=2, sample_size=64, algorithm="stack"):
    catalog = SampleCatalog()
    for index in range(samples):
        catalog.create(
            f"s{index}", sample_size=sample_size, algorithm=algorithm, seed=index
        )
    return catalog


class TestLifecycle:
    def test_create_registers_and_fills(self):
        catalog = make_catalog(samples=3)
        assert len(catalog) == 3
        assert catalog.names() == ["s0", "s1", "s2"]
        assert "s1" in catalog
        maintainer = catalog.get("s0")
        assert maintainer.sample.size == 64
        assert maintainer.dataset_size == 4 * 64
        assert catalog.pending() == {"s0": 0, "s1": 0, "s2": 0}

    def test_duplicate_name_rejected(self):
        catalog = make_catalog(samples=1)
        with pytest.raises(ValueError):
            catalog.create("s0", sample_size=64)

    def test_unknown_names_rejected(self):
        catalog = make_catalog(samples=1)
        with pytest.raises(KeyError):
            catalog.get("nope")
        with pytest.raises(KeyError):
            catalog.entry("nope")

    def test_bad_parameters_rejected(self):
        catalog = SampleCatalog()
        with pytest.raises(ValueError):
            catalog.create("x", sample_size=64, initial_dataset_size=10)
        with pytest.raises(ValueError):
            catalog.create("y", sample_size=64, algorithm="mystery")

    def test_ingest_and_refresh_route_by_name(self):
        catalog = make_catalog(samples=2)
        base = catalog.get("s0").dataset_size
        catalog.ingest("s0", range(base, base + 500))
        assert catalog.pending()["s0"] > 0
        assert catalog.pending()["s1"] == 0
        result = catalog.refresh("s0")
        assert result is not None
        assert catalog.pending()["s0"] == 0


class TestOutOfRangeValues:
    """A batch with a value the record's int64 field cannot hold is refused
    whole, before the sample counts, draws or logs any of it; before, the
    rows were counted and every later refresh failed on encoding them."""

    @pytest.mark.parametrize("kind", ["weighted", "window"])
    @pytest.mark.parametrize(
        "bad", [2**63, -(2**63) - 1, 2.5], ids=["too-big", "too-small", "float"]
    )
    def test_batch_refused_and_sample_still_served(self, kind, bad):
        catalogs = [SampleCatalog(), SampleCatalog()]
        for catalog in catalogs:
            catalog.create("s", sample_size=16, algorithm="array", kind=kind)
        refused, twin = (catalog.get("s") for catalog in catalogs)
        before = refused.dataset_size
        with pytest.raises(ValueError):
            catalogs[0].ingest("s", [5] * 50 + [bad] * 200 + [7])
        assert refused.dataset_size == before
        assert refused.pending_log_elements == 0
        for catalog in catalogs:
            catalog.ingest("s", list(range(300)))
            catalog.refresh("s")
        # Same stream, log and sample as a twin that never saw the batch.
        assert refused.dataset_size == twin.dataset_size == before + 300
        assert refused.sample.peek_all() == twin.sample.peek_all()


class TestManifestRecovery:
    def test_recoverable_from_birth(self):
        """create() persists a manifest before returning."""
        catalog = make_catalog(samples=1)
        maintainer = catalog.reopen("s0")
        assert maintainer.dataset_size == 4 * 64
        assert maintainer.pending_log_elements == 0

    def test_reopen_resumes_bit_identically(self):
        """A recovered catalog continues exactly like an uncrashed one."""
        mirror = make_catalog(samples=1)
        crashed = make_catalog(samples=1)
        base = mirror.get("s0").dataset_size
        prefix = list(range(base, base + 300))
        suffix = list(range(base + 300, base + 700))
        mirror.ingest("s0", prefix)
        crashed.ingest("s0", prefix)
        crashed.checkpoint("s0")
        # The crash: everything in memory is lost; reopen from disk.
        recovered = crashed.reopen("s0")
        assert recovered is not crashed.entry("s0").store  # fresh object
        mirror.ingest("s0", suffix)
        crashed.ingest("s0", suffix)
        assert (
            crashed.get("s0").sample.peek_all() == mirror.get("s0").sample.peek_all()
        )
        assert (
            crashed.get("s0").pending_log_elements
            == mirror.get("s0").pending_log_elements
        )
        assert crashed.get("s0").dataset_size == mirror.get("s0").dataset_size
        # And the post-recovery refresh folds the same candidates.
        mirror.refresh("s0")
        crashed.refresh("s0")
        assert (
            crashed.get("s0").sample.peek_all() == mirror.get("s0").sample.peek_all()
        )

    def test_reopen_all(self):
        catalog = make_catalog(samples=3)
        for name in catalog.names():
            base = catalog.get(name).dataset_size
            catalog.ingest(name, range(base, base + 200))
        catalog.checkpoint_all()
        pending_before = catalog.pending()
        for name in catalog.names():
            catalog.reopen(name)
        assert catalog.pending() == pending_before

    def test_torn_manifest_write_falls_back(self):
        """A crash mid-checkpoint degrades to the previous manifest."""
        catalog = make_catalog(samples=1)
        entry = catalog.entry("s0")
        base = catalog.get("s0").dataset_size
        catalog.ingest("s0", range(base, base + 200))
        catalog.checkpoint("s0")
        good_pending = catalog.get("s0").pending_log_elements
        # Swap the manifest store for one that tears the next write.
        faulty = FaultInjectionDevice(entry.meta_device, torn_writes=True)
        entry.store = DualSlotCheckpointStore(faulty)
        catalog.ingest("s0", range(base + 200, base + 400))
        faulty.arm(writes_until_crash=0)
        with pytest.raises(InjectedCrash):
            catalog.checkpoint("s0")
        faulty.disarm()
        recovered = catalog.reopen("s0")
        # The torn write lost the newer manifest, never the older one.
        assert recovered.pending_log_elements == good_pending

    def test_unrecoverable_when_no_manifest_valid(self):
        catalog = make_catalog(samples=1)
        entry = catalog.entry("s0")
        for slot in (0, 1):
            block = bytearray(entry.meta_device.peek_block(slot))
            block[50] ^= 0xFF
            entry.meta_device.poke_block(slot, bytes(block))
        with pytest.raises(CheckpointError):
            catalog.reopen("s0")


def weighted_images() -> dict:
    """Device images of a checkpointed ``weighted`` sample."""
    source = SampleCatalog()
    entry = source.create("w", sample_size=32, algorithm="array", kind="weighted")
    return {
        role: device_image(getattr(entry, f"{role}_device"))
        for role in ("sample", "log", "meta")
    }


class TestFailedAdopt:
    """A rejected adopt leaves the catalog exactly as it found it."""

    @pytest.mark.parametrize("site", ["pooled", "replicated"])
    @pytest.mark.parametrize(
        ("images", "algorithm", "error"),
        [
            pytest.param(
                lambda: {"sample": {}, "log": {}, "meta": {}},
                "stack",
                CheckpointError,
                id="no-manifest",
            ),
            pytest.param(weighted_images, "stack", ValueError, id="kind-mismatch"),
        ],
    )
    def test_failed_adopt_changes_nothing(self, images, algorithm, error, site):
        link = ReplicationLink() if site == "replicated" else None
        catalog = SampleCatalog(pool_capacity=4, replication=link)
        catalog.create("s0", sample_size=16, algorithm="stack", seed=1)

        def state():
            devices = link.device_names if link is not None else None
            return len(catalog), catalog.pool_stats(), devices

        before = state()
        for _ in range(2):  # a retry fails the same way
            with pytest.raises(error):
                catalog.adopt("ghost", images(), algorithm=algorithm)
            assert state() == before
        assert "ghost" not in catalog
