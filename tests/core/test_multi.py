"""MultiSampleManager: fleets of maintained samples."""

import pytest

from repro.core.multi import MultiSampleManager
from repro.core.refresh.array import ArrayRefresh
from repro.core.refresh.nomem import NomemRefresh
from repro.core.maintenance import SampleMaintainer
from repro.core.reservoir import build_reservoir
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import IntRecordCodec


def make_fleet(algorithm_factory, sizes, seed=1):
    manager = MultiSampleManager()
    rng_root = RandomSource(seed=seed)
    for idx, m in enumerate(sizes):
        rng = rng_root.spawn(f"sample-{idx}")
        codec = IntRecordCodec()
        sample = SampleFile(
            SimulatedBlockDevice(manager.cost_model, f"sample-{idx}"), codec, m
        )
        initial, seen = build_reservoir(range(m * 3), m, rng)
        sample.initialize(initial)
        maintainer = SampleMaintainer(
            sample, rng, strategy="candidate", initial_dataset_size=seen,
            log=LogFile(SimulatedBlockDevice(manager.cost_model, f"log-{idx}"), codec),
            algorithm=algorithm_factory(), cost_model=manager.cost_model,
        )
        manager.add(f"s{idx}", maintainer)
    return manager


class TestRegistry:
    def test_add_get_names(self):
        manager = make_fleet(NomemRefresh, [50, 60])
        assert len(manager) == 2
        assert "s0" in manager and "s1" in manager
        assert manager.names() == ["s0", "s1"]
        assert manager.get("s0").sample.size == 50

    def test_duplicate_name_rejected(self):
        manager = make_fleet(NomemRefresh, [50])
        with pytest.raises(ValueError):
            manager.add("s0", manager.get("s0"))

    def test_unknown_name_rejected(self):
        manager = make_fleet(NomemRefresh, [50])
        with pytest.raises(KeyError):
            manager.get("nope")


class TestBroadcastAndRouting:
    def test_broadcast_reaches_all(self):
        manager = make_fleet(NomemRefresh, [50, 50])
        manager.insert_many(range(1000, 1500))
        for name in manager.names():
            assert manager.get(name).stats.inserts == 500

    def test_routing_reaches_one(self):
        manager = make_fleet(NomemRefresh, [50, 50])
        manager.insert_many(range(1000, 1100), only="s0")
        assert manager.get("s0").stats.inserts == 100
        assert manager.get("s1").stats.inserts == 0

    def test_routing_list(self):
        manager = make_fleet(NomemRefresh, [50, 50, 50])
        manager.insert(7, only=["s0", "s2"])
        assert manager.get("s1").stats.inserts == 0
        assert manager.get("s0").stats.inserts == 1


class TestFleetRefresh:
    def test_refresh_all_reports_per_sample(self):
        manager = make_fleet(NomemRefresh, [40, 80])
        manager.insert_many(range(1000, 2000))
        report = manager.refresh_all()
        assert set(report.results) == {"s0", "s1"}
        assert report.total_candidates > 0
        assert report.total_displaced > 0
        assert manager.pending_log_elements() == {"s0": 0, "s1": 0}

    def test_nomem_fleet_memory_constant_in_m_array_linear(self):
        # The Sec. 1/2 fleet argument: Array's refresh memory is O(M) per
        # sample, Nomem's is a constant PRNG state, so growing the samples
        # grows the Array fleet's aggregate bill and leaves Nomem's flat.
        small, large = [500] * 4, [2000] * 4
        array_small = make_fleet(ArrayRefresh, small)
        array_large = make_fleet(ArrayRefresh, large)
        nomem_small = make_fleet(NomemRefresh, small)
        nomem_large = make_fleet(NomemRefresh, large)
        for manager in (array_small, array_large, nomem_small, nomem_large):
            manager.insert_many(range(10_000, 12_000))
        mem = {
            "array_small": array_small.refresh_all().peak_refresh_memory_bytes,
            "array_large": array_large.refresh_all().peak_refresh_memory_bytes,
            "nomem_small": nomem_small.refresh_all().peak_refresh_memory_bytes,
            "nomem_large": nomem_large.refresh_all().peak_refresh_memory_bytes,
        }
        assert mem["array_small"] == 4 * 500 * 4
        assert mem["array_large"] == 4 * 2000 * 4   # linear in M
        assert mem["nomem_large"] == mem["nomem_small"]  # constant in M
        assert mem["nomem_large"] < mem["array_large"]

    def test_aggregate_stats(self):
        manager = make_fleet(NomemRefresh, [50, 50])
        manager.insert_many(range(1000, 2000))
        manager.refresh_all()
        online = manager.online_stats()
        offline = manager.offline_stats()
        assert online.total_accesses > 0
        assert offline.total_accesses > 0
        # All charges landed on the shared cost model.
        total = manager.cost_model.stats.total_accesses
        initial_loads = 2  # one initialize() block write per sample
        assert total == online.total_accesses + offline.total_accesses + initial_loads


class TestBatchDelegationEquivalence:
    """insert_many delegates per maintainer to the skip-based batch path;
    the result must be bit-identical to the old element-major scalar loop
    (each maintainer owns its RNG, so processing order across maintainers
    is unobservable)."""

    def _state(self, manager):
        out = {}
        for name in manager.names():
            maintainer = manager.get(name)
            out[name] = (
                maintainer.sample.peek_all(),
                maintainer.log.peek_all(),
                maintainer.pending_log_elements,
                maintainer.dataset_size,
                maintainer.stats.inserts,
                maintainer.stats.candidates_logged,
                maintainer._rng.snapshot(),
            )
        return out

    def test_bit_identical_to_scalar_loop(self):
        batch_fleet = make_fleet(NomemRefresh, [50, 80, 120], seed=9)
        scalar_fleet = make_fleet(NomemRefresh, [50, 80, 120], seed=9)
        elements = list(range(5000, 7000))
        batch_fleet.insert_many(elements)
        for element in elements:  # the pre-delegation broadcast loop
            scalar_fleet.insert(element)
        assert self._state(batch_fleet) == self._state(scalar_fleet)
        assert (
            batch_fleet.online_stats().total_accesses
            == scalar_fleet.online_stats().total_accesses
        )

    def test_routed_batch_matches_scalar(self):
        batch_fleet = make_fleet(ArrayRefresh, [60, 60], seed=4)
        scalar_fleet = make_fleet(ArrayRefresh, [60, 60], seed=4)
        batch_fleet.insert_many(range(2000, 2500), only="s1")
        for element in range(2000, 2500):
            scalar_fleet.insert(element, only="s1")
        assert self._state(batch_fleet) == self._state(scalar_fleet)

    def test_one_shot_iterable_is_materialised(self):
        fleet = make_fleet(NomemRefresh, [50, 50], seed=2)
        fleet.insert_many(iter(range(1000, 1400)))
        for name in fleet.names():
            assert fleet.get(name).stats.inserts == 400
