"""Property-based tests: how a stream is cut into batches changes nothing.

The contract: ``SampleMaintainer.insert_many`` over batches of any size
must be indistinguishable from an element-wise ``insert()`` loop (batches
of one) under the same ``repro.rng`` seed -- same sample contents, same
candidate-log records, same AccessStats, same obs counters, same final
RNG state.  The skip walk draws the *same* variates in the *same* order
(skips lazily, victim slots at acceptance time), so equality here is
exact, not statistical.  The walk itself is checked against the eager,
one-arrival-at-a-time reference in ``kind_oracle.py``.

The strategies deliberately cross refresh-period boundaries: batch sizes
{1, 7, 1000} against periods that split a batch mid-way exercise the
``batch_quota`` chunking in every configuration.
"""

from hypothesis import given, settings, strategies as st

from repro.core.maintenance import SampleMaintainer
from repro.core.policies import ManualPolicy, PeriodicPolicy, ThresholdPolicy
from repro.core.refresh.nomem import NomemRefresh
from repro.core.refresh.stack import StackRefresh
from repro.core.reservoir import ReservoirSampler, build_reservoir
from repro.obs.api import Instrumentation
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import IntRecordCodec
from tests.properties import kind_oracle

SAMPLE_SIZE = 32
INITIAL_DATASET = 120

def _build(strategy, policy, seed, *, algorithm=None, instrument=False):
    rng = RandomSource(seed=seed)
    cost = CostModel()
    codec = IntRecordCodec()
    sample = SampleFile(SimulatedBlockDevice(cost, "sample"), codec, SAMPLE_SIZE)
    initial, seen = build_reservoir(range(INITIAL_DATASET), SAMPLE_SIZE, rng)
    sample.initialize(initial)
    obs = (
        Instrumentation(cost_model=cost, trace_inserts=True) if instrument else None
    )
    maintainer = SampleMaintainer(
        sample,
        rng,
        strategy=strategy,
        initial_dataset_size=seen,
        log=LogFile(SimulatedBlockDevice(cost, "log"), codec),
        algorithm=algorithm or StackRefresh(),
        policy=policy,
        cost_model=cost,
        instrumentation=obs,
    )
    return maintainer, sample, obs


def _counter_values(obs):
    """name/labels -> value for every counter."""
    if obs is None:
        return {}
    return {
        (inst["name"], tuple(sorted(inst["labels"].items()))): inst["value"]
        for inst in obs.registry.snapshot()["instruments"]
        if inst["kind"] == "counter"
    }


def _fingerprint(maintainer, sample, obs):
    stats = maintainer.stats
    return {
        "sample": sample.peek_all(),
        "pending_log": maintainer.pending_log_elements,
        "inserts": stats.inserts,
        "refreshes": stats.refreshes,
        "candidates_logged": stats.candidates_logged,
        "online": stats.online,
        "offline": stats.offline,
        "rng": maintainer._rng.snapshot(),
        "counters": _counter_values(obs),
    }


def _policies():
    return st.sampled_from(
        [
            ("manual", lambda: ManualPolicy()),
            # Periods chosen to split every batch size somewhere mid-batch.
            ("periodic-37", lambda: PeriodicPolicy(37)),
            ("periodic-250", lambda: PeriodicPolicy(250)),
            ("threshold-5", lambda: ThresholdPolicy(5)),
            ("threshold-23", lambda: ThresholdPolicy(23)),
        ]
    )


class TestBatchScalarEquivalence:
    @given(
        strategy=st.sampled_from(["immediate", "candidate", "full"]),
        policy=_policies(),
        batch_size=st.sampled_from([1, 7, 1000]),
        seed=st.integers(0, 2**32),
        inserts=st.integers(min_value=0, max_value=1200),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_scalar(
        self, strategy, policy, batch_size, seed, inserts
    ):
        _, make_policy = policy
        scalar, scalar_sample, scalar_obs = _build(
            strategy, make_policy(), seed, instrument=True
        )
        batch, batch_sample, batch_obs = _build(
            strategy, make_policy(), seed, instrument=True
        )

        stream = list(range(INITIAL_DATASET, INITIAL_DATASET + inserts))
        for element in stream:
            scalar.insert(element)
        for start in range(0, len(stream), batch_size):
            batch.insert_many(stream[start : start + batch_size])

        assert _fingerprint(batch, batch_sample, batch_obs) == _fingerprint(
            scalar, scalar_sample, scalar_obs
        )

    @given(
        policy=_policies(),
        batch_size=st.sampled_from([1, 7, 1000]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_candidate_log_records_identical(self, policy, batch_size, seed):
        """Not just counts: the candidate log holds the same records in order."""
        _, make_policy = policy
        scalar, _, _ = _build("candidate", make_policy(), seed)
        batch, _, _ = _build("candidate", make_policy(), seed)

        stream = list(range(INITIAL_DATASET, INITIAL_DATASET + 600))
        for element in stream:
            scalar.insert(element)
        for start in range(0, len(stream), batch_size):
            batch.insert_many(stream[start : start + batch_size])

        assert batch.log.peek_all() == scalar.log.peek_all()

    @given(
        strategy=st.sampled_from(["candidate", "full"]),
        batch_size=st.sampled_from([1, 7, 1000]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=20, deadline=None)
    def test_nomem_algorithm_equivalent(self, strategy, batch_size, seed):
        scalar, scalar_sample, _ = _build(
            strategy, PeriodicPolicy(113), seed, algorithm=NomemRefresh()
        )
        batch, batch_sample, _ = _build(
            strategy, PeriodicPolicy(113), seed, algorithm=NomemRefresh()
        )

        stream = list(range(INITIAL_DATASET, INITIAL_DATASET + 500))
        for element in stream:
            scalar.insert(element)
        for start in range(0, len(stream), batch_size):
            batch.insert_many(stream[start : start + batch_size])

        assert batch_sample.peek_all() == scalar_sample.peek_all()
        assert batch._rng.snapshot() == scalar._rng.snapshot()


class TestReservoirBatchPrimitives:
    """The batched walk against ``kind_oracle.skip_walk``, which draws the
    same skips and slots one arrival at a time."""

    @given(
        n=st.integers(min_value=0, max_value=400),
        chunk=st.sampled_from([1, 7, 1000]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_test_many_matches_test(self, n, chunk, seed):
        oracle_rng = RandomSource(seed=seed)
        batch = ReservoirSampler(16, RandomSource(seed=seed), initial_size=64)

        expected = kind_oracle.skip_walk(16, 64, None, n, oracle_rng, slots=False)
        batch_accepts = []
        done = 0
        while done < n:
            take = min(chunk, n - done)
            consumed, accepted = batch.test_many(take)
            assert consumed == take
            batch_accepts.extend(done + i for i in accepted)
            done += consumed

        assert (batch_accepts, batch.seen, batch.pending_accept) == expected
        assert batch.rng.snapshot() == oracle_rng.snapshot()

    @given(
        n=st.integers(min_value=0, max_value=400),
        chunk=st.sampled_from([1, 7, 1000]),
        seed=st.integers(0, 2**32),
        initial=st.sampled_from([0, 16, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_offer_many_matches_offer(self, n, chunk, seed, initial):
        """offer_many places the same values in the same slots, even when
        the reservoir starts part-filled and fills mid-batch."""
        oracle_rng = RandomSource(seed=seed)
        batch = ReservoirSampler(16, RandomSource(seed=seed), initial_size=initial)

        expected = kind_oracle.skip_walk(16, initial, None, n, oracle_rng)
        batch_placed = []
        done = 0
        while done < n:
            take = min(chunk, n - done)
            consumed, placed = batch.offer_many(take)
            assert consumed == take
            batch_placed.extend((done + index, slot) for index, slot in placed)
            done += consumed

        assert (batch_placed, batch.seen, batch.pending_accept) == expected
        assert batch.rng.snapshot() == oracle_rng.snapshot()

    @given(
        seed=st.integers(0, 2**32),
        max_accepts=st.integers(min_value=1, max_value=4),
        slots=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_max_accepts_stops_at_acceptance(self, seed, max_accepts, slots):
        """Capped batches stop exactly at the accepting element, leaving the
        sampler state as if the remaining elements were never offered."""
        capped = ReservoirSampler(8, RandomSource(seed=seed), initial_size=512)
        oracle_rng = RandomSource(seed=seed)

        step = capped.offer_many if slots else capped.test_many
        consumed, accepted = step(4000, max_accepts=max_accepts)
        assert len(accepted) <= max_accepts
        expected = kind_oracle.skip_walk(8, 512, None, consumed, oracle_rng, slots)
        assert (accepted, capped.seen, capped.pending_accept) == expected
        if len(accepted) == max_accepts:
            # Stopped exactly on the accepting element.
            last = accepted[-1][0] if slots else accepted[-1]
            assert last == consumed - 1
        assert capped.rng.snapshot() == oracle_rng.snapshot()
