"""Group-by estimation with stratified, deferredly maintained samples.

Sec. 2 of the paper notes that group-by sampling schemes (congressional
samples and friends) build on reservoir sampling and "can be natively
extended to support fast deferred refresh using the techniques presented
in this paper".  This example shows why you want per-group samples in the
first place -- and that each group's sample rides the same candidate-log
machinery.

Workload: a heavily skewed stream (Zipf keys), so one group receives
thousands of elements while the rarest gets a handful.  A single uniform
sample of the whole stream would all but miss the rare groups; per-group
samples answer GROUP BY queries with bounded error for every group.

Run:  python examples/groupby_sampling.py
"""

from collections import Counter

from repro import IntRecordCodec, PeriodicPolicy, RandomSource
from repro.analysis.query import SampleQuery
from repro.core.stratified import StratifiedSampleManager
from repro.core.reservoir import build_reservoir
from repro.stream.source import zipf_stream

GROUPS = 8
STREAM = 40_000
PER_GROUP = 100


def main() -> None:
    rng = RandomSource(seed=11)
    # Each stream element is (group, value); encode as group*10^6 + value.
    keys = list(zipf_stream(rng, universe=GROUPS, count=STREAM))
    values = [(k * 1_000_000) + (i % 1000) for i, k in enumerate(keys)]
    truth = Counter(keys)

    manager = StratifiedSampleManager(
        group_of=lambda v: v // 1_000_000,
        per_group_size=PER_GROUP,
        codec=IntRecordCodec(),
        rng=RandomSource(seed=12),
        policy_factory=lambda: PeriodicPolicy(1_000),
    )
    manager.insert_many(values)
    manager.refresh_all()

    # Compare against one single uniform sample of the same total budget.
    total_budget = PER_GROUP * len(manager)
    single, _ = build_reservoir(values, total_budget, RandomSource(seed=13))
    single_counts = Counter(v // 1_000_000 for v in single)

    print(f"stream: {STREAM} elements over {GROUPS} Zipf-skewed groups")
    print(f"per-group samples: {len(manager)} x {PER_GROUP} elements "
          f"(same budget as one {total_budget}-element uniform sample)")
    print()
    header = (f"{'group':>5} | {'true size':>9} | {'stratified est.':>15} "
              f"| {'single-sample est.':>18}")
    print(header)
    print("-" * len(header))
    for group in sorted(truth):
        stratum = manager.group(group)
        size = SampleQuery(stratum.contents(), stratum.dataset_size).count()
        single_est = single_counts.get(group, 0) * STREAM / total_budget
        print(f"{group:>5} | {truth[group]:>9} | {size.value:>15.0f} "
              f"| {single_est:>18.0f}")
    print()
    rare = min(truth, key=truth.get)
    kept = manager.group(rare).sample_size
    print(f"rarest group ({rare}: {truth[rare]} elements) keeps {kept} "
          f"sampled elements in its own stratum; the single uniform sample "
          f"holds {single_counts.get(rare, 0)}.")


if __name__ == "__main__":
    main()
