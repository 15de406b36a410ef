"""Fleets of maintained samples: a list of maintainers over one cost model."""

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
    """One candidate-logged maintainer per size, all charging one cost model."""
    cost = CostModel()
    fleet = []
    rng_root = RandomSource(seed=seed)
    for idx, m in enumerate(sizes):
        rng = rng_root.spawn(f"sample-{idx}")
        codec = IntRecordCodec()
        sample = SampleFile(SimulatedBlockDevice(cost, f"sample-{idx}"), codec, m)
        initial, seen = build_reservoir(range(m * 3), m, rng)
        sample.initialize(initial)
        fleet.append(SampleMaintainer(
            sample, rng, strategy="candidate", initial_dataset_size=seen,
            log=LogFile(SimulatedBlockDevice(cost, f"log-{idx}"), codec),
            algorithm=algorithm_factory(), cost_model=cost,
        ))
    return cost, fleet


def insert_all(fleet, elements):
    for maintainer in fleet:
        maintainer.insert_many(elements)


def peak_refresh_memory(fleet):
    """Sum of the per-sample refresh peaks (the concurrent-refresh bill)."""
    return sum(maintainer.refresh().memory.peak_bytes for maintainer in fleet)


class TestFleetRefresh:
    def test_refresh_all_reports_per_sample(self):
        _, fleet = make_fleet(NomemRefresh, [40, 80])
        insert_all(fleet, range(1000, 2000))
        results = [maintainer.refresh() for maintainer in fleet]
        for result in results:
            assert result.candidates > 0
            assert result.displaced > 0
        assert [m.pending_log_elements for m in fleet] == [0, 0]

    def test_nomem_fleet_memory_constant_in_m_array_linear(self):
        # The Sec. 1/2 fleet argument: Array's refresh memory is O(M) per
        # sample, Nomem's is a constant PRNG state, so growing the samples
        # grows the Array fleet's aggregate bill and leaves Nomem's flat.
        small, large = [500] * 4, [2000] * 4
        fleets = {
            "array_small": make_fleet(ArrayRefresh, small)[1],
            "array_large": make_fleet(ArrayRefresh, large)[1],
            "nomem_small": make_fleet(NomemRefresh, small)[1],
            "nomem_large": make_fleet(NomemRefresh, large)[1],
        }
        for fleet in fleets.values():
            insert_all(fleet, range(10_000, 12_000))
        mem = {name: peak_refresh_memory(fleet) for name, fleet in fleets.items()}
        assert mem["array_small"] == 4 * 500 * 4
        assert mem["array_large"] == 4 * 2000 * 4   # linear in M
        assert mem["nomem_large"] == mem["nomem_small"]  # constant in M
        assert mem["nomem_large"] < mem["array_large"]

    def test_aggregate_stats(self):
        cost, fleet = make_fleet(NomemRefresh, [50, 50])
        insert_all(fleet, range(1000, 2000))
        for maintainer in fleet:
            maintainer.refresh()
        online = sum(m.stats.online.total_accesses for m in fleet)
        offline = sum(m.stats.offline.total_accesses for m in fleet)
        assert online > 0
        assert offline > 0
        # All charges landed on the shared cost model.
        initial_loads = 2  # one initialize() block write per sample
        assert cost.stats.total_accesses == online + offline + initial_loads


class TestBatchDelegationEquivalence:
    """Maintainer-major insert_many must be bit-identical to the
    element-major scalar loop (each maintainer owns its RNG, so the
    processing order across maintainers is unobservable)."""

    def _state(self, fleet):
        return [
            (
                maintainer.sample.peek_all(),
                maintainer.log.peek_all(),
                maintainer.pending_log_elements,
                maintainer.dataset_size,
                maintainer.stats.inserts,
                maintainer.stats.candidates_logged,
                maintainer._rng.snapshot(),
            )
            for maintainer in fleet
        ]

    def test_bit_identical_to_scalar_loop(self):
        _, batch_fleet = make_fleet(NomemRefresh, [50, 80, 120], seed=9)
        _, scalar_fleet = make_fleet(NomemRefresh, [50, 80, 120], seed=9)
        elements = list(range(5000, 7000))
        insert_all(batch_fleet, elements)
        for element in elements:  # the element-major loop
            for maintainer in scalar_fleet:
                maintainer.insert(element)
        assert self._state(batch_fleet) == self._state(scalar_fleet)
        assert (
            sum(m.stats.online.total_accesses for m in batch_fleet)
            == sum(m.stats.online.total_accesses for m in scalar_fleet)
        )
