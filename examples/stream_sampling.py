"""Data-stream sampling: high arrival rates, out-of-band refresh.

The paper's streaming motivation (Sec. 1-2, 6): a stream operator must
process arrivals cheaply -- the online cost is what bounds sustainable
throughput -- while the sample refresh can run elsewhere ("the refresh may
be conducted by an independent system which has access to the log file").

This example pushes a bursty stream through a StreamSampleOperator,
defers refreshes to the quiet periods between bursts, and then answers
whole-stream questions from the sample.  It also contrasts the online
I/O bill with what immediate maintenance would have paid.

Run:  python examples/stream_sampling.py
"""

from repro import (
    CostModel,
    IntRecordCodec,
    LogFile,
    RandomSource,
    SampleFile,
    SampleMaintainer,
    NomemRefresh,
    SimulatedBlockDevice,
    build_reservoir,
)
from repro.analysis.query import SampleQuery
from repro.stream.operator import StreamSampleOperator
from repro.stream.source import bursty_stream


SAMPLE_SIZE = 1_000
WARMUP = 5_000
STREAM_LENGTH = 50_000


def build_operator(cost: CostModel, rng: RandomSource) -> StreamSampleOperator:
    codec = IntRecordCodec()
    sample = SampleFile(SimulatedBlockDevice(cost, "sample"), codec, SAMPLE_SIZE)
    initial, seen = build_reservoir(range(WARMUP), SAMPLE_SIZE, rng)
    sample.initialize(initial)
    maintainer = SampleMaintainer(
        sample,
        rng,
        strategy="candidate",
        initial_dataset_size=seen,
        log=LogFile(SimulatedBlockDevice(cost, "log"), codec),
        algorithm=NomemRefresh(),  # zero refresh memory: stream-friendly
        cost_model=cost,
    )
    return StreamSampleOperator(maintainer, refresh_interval=10_000)


def main() -> None:
    rng = RandomSource(seed=7)
    cost = CostModel()
    operator = build_operator(cost, rng)

    # Bursts of back-to-back arrivals separated by quiet periods; the
    # operator only does log-phase work inside a burst and refreshes when
    # the stream goes quiet.
    deferred_refreshes = 0
    last_timestamp = None
    for timestamp, value in bursty_stream(
        rng, STREAM_LENGTH, burst_length=2_000, quiet_length=5_000,
        value_start=WARMUP,
    ):
        quiet_gap = last_timestamp is not None and timestamp - last_timestamp > 1
        if quiet_gap and operator.refresh_due():
            operator.refresh()
            deferred_refreshes += 1
        operator.process(value)
        last_timestamp = timestamp
    operator.refresh()

    maintainer = operator.maintainer
    print(f"stream tuples          : {operator.tuples_processed}")
    print(f"candidates logged      : {maintainer.stats.candidates_logged}")
    print(f"refreshes (quiet time) : {operator.refreshes}")

    online_ms = maintainer.stats.online.cost_seconds() * 1000
    per_tuple_us = online_ms * 1000 / operator.tuples_processed
    print(f"online I/O             : {online_ms:.1f} ms total, "
          f"{per_tuple_us:.3f} us/tuple")

    # What immediate maintenance would have paid for the same stream:
    imm_cost = CostModel()
    imm_rng = RandomSource(seed=7)
    codec = IntRecordCodec()
    imm_sample = SampleFile(SimulatedBlockDevice(imm_cost, "s"), codec, SAMPLE_SIZE)
    initial, seen = build_reservoir(range(WARMUP), SAMPLE_SIZE, imm_rng)
    imm_sample.initialize(initial)
    mark = imm_cost.checkpoint()
    immediate = SampleMaintainer(
        imm_sample, imm_rng, strategy="immediate", initial_dataset_size=seen
    )
    immediate.insert_many(range(WARMUP, WARMUP + STREAM_LENGTH))
    imm_ms = imm_cost.since(mark).cost_seconds() * 1000
    print(f"immediate would cost   : {imm_ms:.1f} ms "
          f"({imm_ms / max(online_ms, 1e-9):.0f}x the online bill)")

    # Whole-stream questions answered from the bounded-size sample:
    total = WARMUP + STREAM_LENGTH
    q = SampleQuery(maintainer.sample.peek_all(), maintainer.dataset_size)
    mean = q.avg()
    print(f"est. stream mean       : {mean.value:,.0f} "
          f"[{mean.low:,.0f}, {mean.high:,.0f}] "
          f"(true {sum(range(total)) / total:,.0f})")
    late = q.where(lambda v: v >= total * 0.9).fraction()
    print(f"est. fraction in last 10% of arrivals: {late.value:.3f} "
          f"[{late.low:.3f}, {late.high:.3f}] (true 0.100)")


if __name__ == "__main__":
    main()
