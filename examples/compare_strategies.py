"""Head-to-head: every maintenance strategy on the same workload.

Runs immediate maintenance, full logging, candidate logging (with each
refresh algorithm) and the Geometric File over an identical insert stream,
then prints the I/O bill per strategy -- a miniature of the paper's whole
evaluation in one table.

Run:  python examples/compare_strategies.py
"""

from repro import (
    ArrayRefresh,
    CostModel,
    IntRecordCodec,
    LogFile,
    NaiveCandidateRefresh,
    NomemRefresh,
    PeriodicPolicy,
    RandomSource,
    SampleFile,
    SampleMaintainer,
    SimulatedBlockDevice,
    StackRefresh,
    build_reservoir,
)
from repro.baselines import GeometricFile

SAMPLE_SIZE = 2_000
INITIAL = 5_000
INSERTS = 40_000
PERIOD = 4_000
SEED = 99


def run_maintainer(strategy, algorithm):
    rng = RandomSource(seed=SEED)
    cost = CostModel()
    codec = IntRecordCodec()
    sample = SampleFile(SimulatedBlockDevice(cost, "sample"), codec, SAMPLE_SIZE)
    initial, seen = build_reservoir(range(INITIAL), SAMPLE_SIZE, rng)
    sample.initialize(initial)
    mark = cost.checkpoint()
    maintainer = SampleMaintainer(
        sample, rng, strategy=strategy, initial_dataset_size=seen,
        log=LogFile(SimulatedBlockDevice(cost, "log"), codec),
        algorithm=algorithm, policy=PeriodicPolicy(PERIOD), cost_model=cost,
    )
    maintainer.insert_many(range(INITIAL, INITIAL + INSERTS))
    maintainer.refresh()
    stats = maintainer.stats
    return (
        stats.online.cost_seconds(),
        stats.offline.cost_seconds(),
        cost.since(mark),
    )


def run_geometric_file():
    rng = RandomSource(seed=SEED)
    cost = CostModel()
    initial, seen = build_reservoir(range(INITIAL), SAMPLE_SIZE, rng)
    mark = cost.checkpoint()
    gf = GeometricFile(
        sample_size=SAMPLE_SIZE, buffer_capacity=SAMPLE_SIZE // 25,  # 4%
        rng=rng, cost_model=cost, initial_sample=initial,
        initial_dataset_size=seen,
    )
    gf.insert_many(range(INITIAL, INITIAL + INSERTS))
    gf.flush()
    return 0.0, cost.since(mark).cost_seconds(), cost.since(mark)


def main() -> None:
    contenders = [
        ("immediate", lambda: run_maintainer("immediate", None)),
        ("full log + stack refresh",
         lambda: run_maintainer("full", StackRefresh())),
        ("candidate log + naive refresh",
         lambda: run_maintainer("candidate", NaiveCandidateRefresh())),
        ("candidate log + array refresh",
         lambda: run_maintainer("candidate", ArrayRefresh())),
        ("candidate log + stack refresh",
         lambda: run_maintainer("candidate", StackRefresh())),
        ("candidate log + nomem refresh",
         lambda: run_maintainer("candidate", NomemRefresh())),
        ("geometric file (4% buffer)", run_geometric_file),
    ]
    print(f"workload: {INSERTS} inserts into |R|={INITIAL}, "
          f"M={SAMPLE_SIZE}, refresh every {PERIOD}")
    print()
    header = f"{'strategy':<34} {'online s':>9} {'offline s':>10} {'total s':>9}   accesses"
    print(header)
    print("-" * len(header))
    for name, runner in contenders:
        online, offline, stats = runner()
        print(f"{name:<34} {online:>9.3f} {offline:>10.3f} "
              f"{online + offline:>9.3f}   {stats}")
    print()
    print("(seconds under the paper's disk model: seq 0.094 ms/block, "
          "random read 8.45 ms, random write 5.50 ms)")


if __name__ == "__main__":
    main()
