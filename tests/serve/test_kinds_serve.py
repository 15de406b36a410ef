"""Sample kinds through the serving stack: catalog, manifests, read path.

Satellite coverage for the kind refactor: catalog creation validates and
canonicalises kind specs, checkpoint -> reopen resumes every kind
bit-identically (the twin-continuation form), disaster-recovery adoption
derives the kind from the manifest, and the read path serves window
samples with capped staleness plus the ``bounded_expiry`` freshness mode.
"""

import math

import pytest

from repro.core.kinds import UniformKind
from repro.serve.catalog import KIND_ALGORITHMS, SampleCatalog
from repro.serve.session import Freshness, QuerySession
from repro.serve.sim import SimConfig, run_simulation
from repro.storage.replicated import device_image

KIND_SPECS = ("weighted", "weighted:5", "window")


def make_catalog(kind, samples=1, sample_size=32, algorithm="array"):
    catalog = SampleCatalog()
    for index in range(samples):
        catalog.create(
            f"s{index}",
            sample_size=sample_size,
            algorithm=algorithm,
            seed=index,
            kind=kind,
        )
    return catalog


class TestCatalogKinds:
    def test_create_canonicalises_and_records_kind(self):
        catalog = SampleCatalog()
        catalog.create("w", sample_size=32, algorithm="array", seed=1, kind="weighted:16")
        catalog.create("v", sample_size=32, algorithm="naive", seed=2, kind="window")
        catalog.create("u", sample_size=32, algorithm="stack", seed=3, kind="uniform")
        # weighted:16 is the default modulus, so the spec canonicalises.
        assert catalog.entry("w").kind == "weighted"
        assert catalog.entry("w").maintainer.kind.weight_mod == 16
        assert catalog.entry("v").kind == "window"
        assert catalog.entry("u").kind == "uniform"
        assert isinstance(catalog.entry("u").maintainer.kind, UniformKind)
        assert isinstance(catalog.get("u").kind, UniformKind)

    def test_non_uniform_kind_requires_kind_capable_algorithm(self):
        catalog = SampleCatalog()
        for algorithm in ("stack", "nomem"):
            assert algorithm not in KIND_ALGORITHMS
            with pytest.raises(ValueError, match="kind-capable"):
                catalog.create(
                    "x", sample_size=32, algorithm=algorithm, seed=1, kind="window"
                )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown sample kind"):
            make_catalog("mystery")

    @pytest.mark.parametrize("kind", KIND_SPECS)
    def test_ingest_and_refresh_roundtrip(self, kind):
        catalog = make_catalog(kind)
        maintainer = catalog.get("s0")
        base = maintainer.dataset_size
        catalog.ingest("s0", range(base, base + 200))
        assert catalog.pending()["s0"] > 0
        catalog.refresh("s0")
        assert catalog.pending()["s0"] == 0
        assert maintainer.dataset_size == base + 200


class TestKindManifestRecovery:
    """Satellite (c): checkpoint -> reopen round-trip, per kind."""

    @pytest.mark.parametrize("kind", KIND_SPECS)
    def test_reopen_resumes_bit_identically(self, kind):
        mirror = make_catalog(kind)
        crashed = make_catalog(kind)
        base = mirror.get("s0").dataset_size
        prefix = list(range(base, base + 150))
        suffix = list(range(base + 150, base + 400))
        mirror.ingest("s0", prefix)
        crashed.ingest("s0", prefix)
        crashed.checkpoint("s0")
        recovered = crashed.reopen("s0")
        # reopen built a fresh kind object from the manifest, not the
        # crashed maintainer's in-memory one.
        assert recovered.kind is not None
        assert recovered.kind is not mirror.get("s0").kind
        assert crashed.entry("s0").maintainer.kind is recovered.kind
        mirror.ingest("s0", suffix)
        crashed.ingest("s0", suffix)
        assert (
            crashed.get("s0").sample.peek_all() == mirror.get("s0").sample.peek_all()
        )
        assert (
            crashed.get("s0").pending_log_elements
            == mirror.get("s0").pending_log_elements
        )
        mirror.refresh("s0")
        crashed.refresh("s0")
        assert (
            crashed.get("s0").sample.peek_all() == mirror.get("s0").sample.peek_all()
        )
        assert crashed.get("s0").dataset_size == mirror.get("s0").dataset_size

    @pytest.mark.parametrize("kind", KIND_SPECS)
    def test_manifest_carries_kind_fields(self, kind):
        catalog = make_catalog(kind)
        maintainer = catalog.get("s0")
        checkpoint = maintainer.checkpoint_state()
        assert checkpoint.kind_name == kind.partition(":")[0]
        if checkpoint.kind_name == "weighted":
            assert checkpoint.kind_param == maintainer.kind.weight_mod
            assert checkpoint.kind_threshold == maintainer.kind.threshold
            assert math.isfinite(checkpoint.kind_threshold)
        else:
            assert checkpoint.kind_param == maintainer.sample.size

    @pytest.mark.parametrize("kind", KIND_SPECS)
    def test_adopt_derives_kind_from_manifest(self, kind):
        """DR adoption: the manifest names the kind; the caller cannot."""
        source = make_catalog(kind)
        base = source.get("s0").dataset_size
        source.ingest("s0", range(base, base + 100))
        source.checkpoint("s0")
        entry = source.entry("s0")
        images = {
            role: device_image(getattr(entry, f"{role}_device"))
            for role in ("sample", "log", "meta")
        }
        target = SampleCatalog()
        adopted = target.adopt("s0", images, algorithm="array")
        expected = "weighted" if kind == "weighted:16" else kind
        assert adopted.kind == expected
        assert target.get("s0").sample.peek_all() == source.get("s0").sample.peek_all()
        # The adopted sample continues like the source.
        source.ingest("s0", range(base + 100, base + 200))
        target.ingest("s0", range(base + 100, base + 200))
        source.refresh("s0")
        target.refresh("s0")
        assert target.get("s0").sample.peek_all() == source.get("s0").sample.peek_all()

    def test_adopt_rejects_kindless_algorithm(self):
        source = make_catalog("window")
        source.checkpoint("s0")
        entry = source.entry("s0")
        images = {
            role: device_image(getattr(entry, f"{role}_device"))
            for role in ("sample", "log", "meta")
        }
        with pytest.raises(ValueError, match="kind-capable"):
            SampleCatalog().adopt("s0", images, algorithm="stack")


class TestBoundedExpiry:
    def test_parse_and_label(self):
        freshness = Freshness.parse("bounded_expiry:0.25")
        assert freshness == Freshness.bounded_expiry(0.25)
        assert freshness.label == "bounded_expiry:0.25"

    def test_validation(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                Freshness.bounded_expiry(bad)
        with pytest.raises(ValueError):
            Freshness.parse("bounded_expiry")

    def test_requires_refresh_is_a_fraction_of_capacity(self):
        freshness = Freshness.bounded_expiry(0.25)
        assert not freshness.requires_refresh(8, capacity=32)
        assert freshness.requires_refresh(9, capacity=32)
        with pytest.raises(ValueError, match="capacity"):
            freshness.requires_refresh(9)


class TestKindReadPath:
    def test_window_staleness_caps_at_window_size(self):
        catalog = make_catalog("window", sample_size=32)
        maintainer = catalog.get("s0")
        base = maintainer.dataset_size
        catalog.ingest("s0", range(base, base + 500))
        assert maintainer.pending_log_elements == 500
        answer = QuerySession(catalog).execute("s0", Freshness.serve_stale())
        # Only W of the 500 pending rows can displace live rows; the rest
        # expired each other inside the log.
        assert answer.staleness == 32
        assert answer.dataset_size == 32  # the window is the population

    def test_bounded_expiry_forces_refresh_on_window_sample(self):
        catalog = make_catalog("window", sample_size=32)
        maintainer = catalog.get("s0")
        base = maintainer.dataset_size
        catalog.ingest("s0", range(base, base + 500))
        # A row-count bound of W never fires for a window sample...
        lax = QuerySession(catalog).execute("s0", Freshness.bounded(32))
        assert not lax.refreshed
        # ...but the fraction form does, and the answer is fresh.
        answer = QuerySession(catalog).execute("s0", Freshness.bounded_expiry(0.5))
        assert answer.refreshed
        assert answer.staleness == 0
        assert maintainer.pending_log_elements == 0

    def test_weighted_population_is_dataset_size(self):
        catalog = make_catalog("weighted", sample_size=32)
        maintainer = catalog.get("s0")
        base = maintainer.dataset_size
        catalog.ingest("s0", range(base, base + 100))
        answer = QuerySession(catalog).execute("s0", Freshness.serve_stale())
        assert answer.dataset_size == base + 100
        assert answer.rows_scanned == 32

    def test_window_staleness_capped_end_to_end(self):
        """Every answered query in a window-kind simulation reports
        effective staleness, so nothing in a full run exceeds W."""
        report = run_simulation(
            SimConfig(
                seed=11,
                events=60,
                samples=2,
                sample_size=32,
                algorithm="array",
                kinds=("window",),
            )
        )
        queries = [e for e in report.trace if e["kind"] == "query"]
        assert queries
        for entry in queries:
            assert entry["staleness"] <= 32


class TestUniformInvisibility:
    def test_uniform_kinds_tuple_is_byte_identical_to_no_kinds(self):
        """Configuring kind 'uniform' explicitly must not change a byte
        of the report relative to never mentioning kinds."""
        with_kinds = run_simulation(
            SimConfig(seed=5, events=80, samples=2, kinds=("uniform",))
        )
        without = run_simulation(SimConfig(seed=5, events=80, samples=2))
        assert with_kinds.to_json() == without.to_json()

    def test_mixed_kind_simulation_is_deterministic(self):
        config = SimConfig(
            seed=9,
            events=100,
            samples=3,
            sample_size=32,
            algorithm="naive",
            kinds=("weighted", "window", "uniform"),
        )
        assert run_simulation(config).to_json() == run_simulation(config).to_json()
