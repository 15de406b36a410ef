"""Quickstart: maintain a disk-based random sample with deferred refresh.

Walks the library's happy path end to end:

1. build the initial reservoir sample of a dataset and put it on (simulated)
   disk;
2. attach a SampleMaintainer with candidate logging (Sec. 3.2 of the paper)
   and Stack Refresh (Sec. 4.2), refreshing every 5 000 insertions;
3. stream in new data;
4. estimate the mean with its confidence interval and inspect the I/O bill.

Run:  python examples/quickstart.py
"""

from repro import (
    CostModel,
    IntRecordCodec,
    LogFile,
    PeriodicPolicy,
    RandomSource,
    SampleFile,
    SampleMaintainer,
    SimulatedBlockDevice,
    StackRefresh,
    build_reservoir,
)
from repro.analysis.query import SampleQuery


def main() -> None:
    rng = RandomSource(seed=2006)
    cost = CostModel()  # the paper's disk: 4 KiB blocks, 32 B elements
    codec = IntRecordCodec()

    # -- 1. initial sample -------------------------------------------------
    sample_size = 2_000
    initial_dataset = range(10_000)
    sample = SampleFile(SimulatedBlockDevice(cost, "sample"), codec, sample_size)
    initial, dataset_size = build_reservoir(initial_dataset, sample_size, rng)
    sample.initialize(initial)
    print(f"initial sample: {sample_size} of {dataset_size} elements on disk")

    # -- 2. deferred maintenance -------------------------------------------
    maintainer = SampleMaintainer(
        sample,
        rng,
        strategy="candidate",             # log only accepted elements
        initial_dataset_size=dataset_size,
        log=LogFile(SimulatedBlockDevice(cost, "log"), codec),
        algorithm=StackRefresh(),          # sequential-I/O-only refresh
        policy=PeriodicPolicy(5_000),      # refresh every 5k insertions
        cost_model=cost,
    )

    # -- 3. insertions arrive ----------------------------------------------
    maintainer.insert_many(range(10_000, 60_000))
    maintainer.refresh()  # final refresh so the sample is current

    stats = maintainer.stats
    print(f"inserted {stats.inserts} elements, "
          f"logged {stats.candidates_logged} candidates "
          f"({stats.candidates_logged / stats.inserts:.1%}), "
          f"{stats.refreshes} refreshes")

    # -- 4. query the sample -----------------------------------------------
    mean = SampleQuery(sample.peek_all(), maintainer.dataset_size).avg()
    print(f"estimated mean    : {mean.value:.0f} "
          f"[{mean.low:.0f}, {mean.high:.0f}] @95% "
          f"(true {sum(range(60_000)) / 60_000:.0f})")

    # -- 5. the I/O bill ----------------------------------------------------
    online = stats.online.cost_seconds()
    offline = stats.offline.cost_seconds()
    print(f"online  (log phase)    : {stats.online}  -> {online * 1000:.1f} ms")
    print(f"offline (refresh phase): {stats.offline}  -> {offline * 1000:.1f} ms")
    print(f"total                  : {(online + offline) * 1000:.1f} ms "
          f"(paper disk model)")


if __name__ == "__main__":
    main()
