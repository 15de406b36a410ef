"""Ablation: refresh memory across a fleet of maintained samples.

Sec. 1/2 of the paper argue that per-sample memory is what kills
in-memory designs at fleet scale ("each maintained sample requires its
own buffer, the GF does not scale well with the number of samples").
This ablation maintains fleets of candidate-logged samples and compares
the aggregate refresh-memory bill of Array vs. Stack vs. Nomem Refresh.
"""

from repro.core.maintenance import SampleMaintainer
from repro.core.refresh.array import ArrayRefresh
from repro.core.refresh.nomem import NomemRefresh
from repro.core.refresh.stack import StackRefresh
from repro.core.reservoir import build_reservoir
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import IntRecordCodec

SAMPLE_SIZE = 2_000
FLEETS = (1, 4, 16)


def build_fleet(algorithm_factory, count, seed=3):
    """``count`` candidate-logged maintainers over one shared cost model."""
    cost = CostModel()
    fleet = []
    root = RandomSource(seed=seed)
    for idx in range(count):
        rng = root.spawn(f"s{idx}")
        codec = IntRecordCodec()
        sample = SampleFile(
            SimulatedBlockDevice(cost, f"sample-{idx}"), codec, SAMPLE_SIZE
        )
        initial, seen = build_reservoir(range(SAMPLE_SIZE * 2), SAMPLE_SIZE, rng)
        sample.initialize(initial)
        fleet.append(
            SampleMaintainer(
                sample, rng, strategy="candidate", initial_dataset_size=seen,
                log=LogFile(SimulatedBlockDevice(cost, f"log-{idx}"), codec),
                algorithm=algorithm_factory(), cost_model=cost,
            )
        )
    return fleet


def run_fleet(algorithm_factory, count):
    """Aggregate refresh memory: the sum of the per-sample peaks."""
    fleet = build_fleet(algorithm_factory, count)
    for maintainer in fleet:
        maintainer.insert_many(range(10_000, 14_000))
    return sum(maintainer.refresh().memory.peak_bytes for maintainer in fleet)


def test_fleet_memory_scaling(benchmark):
    results = {}
    for name, factory in (
        ("array", ArrayRefresh), ("stack", StackRefresh), ("nomem", NomemRefresh)
    ):
        results[name] = [run_fleet(factory, count) for count in FLEETS]
    benchmark.pedantic(run_fleet, args=(NomemRefresh, 4), rounds=1, iterations=1)

    print()
    print(f"aggregate refresh memory (bytes), M={SAMPLE_SIZE} per sample:")
    print(f"  {'fleet size':>10} | {'array':>9} | {'stack':>9} | {'nomem':>9}")
    for idx, count in enumerate(FLEETS):
        print(f"  {count:>10} | {results['array'][idx]:>9} "
              f"| {results['stack'][idx]:>9} | {results['nomem'][idx]:>9}")

    # Array: exactly 4*M bytes per sample, linear in the fleet.
    assert results["array"] == [4 * SAMPLE_SIZE * count for count in FLEETS]
    # Stack: below Array (Psi < M), still linear-ish.
    for stack_v, array_v in zip(results["stack"], results["array"]):
        assert stack_v < array_v
    # Nomem: a constant PRNG state per sample -- independent of M, and the
    # cheapest once samples are non-trivial.
    assert results["nomem"][-1] < results["array"][-1]
    per_sample = results["nomem"][0]
    assert results["nomem"] == [per_sample * count for count in FLEETS]
