"""Property-based tests: the batch insert path is bit-identical to scalar.

PR 3's contract: ``SampleMaintainer.insert_many`` with the skip-based
batch path must be indistinguishable from the element-wise loop under the
same ``repro.rng`` seed -- same sample contents, same candidate-log
records, same AccessStats, same obs counters, same final RNG state.  The
batch path draws the *same* variates in the *same* order (skips lazily,
victim slots at acceptance time), so equality here is exact, not
statistical.

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

SAMPLE_SIZE = 32
INITIAL_DATASET = 120

# The counter the batch path increments in bulk and the scalar path never
# touches -- documented in obs/catalogue.py as batch-only, so it is the
# one instrument excluded from the equivalence check.
BATCH_ONLY_COUNTERS = {"maintenance.inserts_skipped"}


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
    """name/labels -> value for every counter except the batch-only ones."""
    if obs is None:
        return {}
    return {
        (inst["name"], tuple(sorted(inst["labels"].items()))): inst["value"]
        for inst in obs.registry.snapshot()["instruments"]
        if inst["kind"] == "counter" and inst["name"] not in BATCH_ONLY_COUNTERS
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
        scalar.insert_many(stream, scalar=True)
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
        scalar.insert_many(stream, scalar=True)
        for start in range(0, len(stream), batch_size):
            batch.insert_many(stream[start : start + batch_size])

        assert batch._log_file().peek_all() == scalar._log_file().peek_all()

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
        scalar.insert_many(stream, scalar=True)
        for start in range(0, len(stream), batch_size):
            batch.insert_many(stream[start : start + batch_size])

        assert batch_sample.peek_all() == scalar_sample.peek_all()
        assert batch._rng.snapshot() == scalar._rng.snapshot()

    @given(
        batch_size=st.sampled_from([1, 7, 1000]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=20, deadline=None)
    def test_scalar_flag_forces_elementwise(self, batch_size, seed):
        """insert_many(scalar=True) matches a hand-written insert() loop."""
        loop, loop_sample, _ = _build("candidate", PeriodicPolicy(100), seed)
        flag, flag_sample, _ = _build("candidate", PeriodicPolicy(100), seed)

        stream = list(range(INITIAL_DATASET, INITIAL_DATASET + 300))
        for element in stream:
            loop.insert(element)
        for start in range(0, len(stream), batch_size):
            flag.insert_many(stream[start : start + batch_size], scalar=True)

        assert flag_sample.peek_all() == loop_sample.peek_all()
        assert flag._rng.snapshot() == loop._rng.snapshot()
        assert flag.stats.online == loop.stats.online
        assert flag.stats.offline == loop.stats.offline


class TestReservoirBatchPrimitives:
    @given(
        n=st.integers(min_value=0, max_value=400),
        chunk=st.sampled_from([1, 7, 1000]),
        seed=st.integers(0, 2**32),
        method=st.sampled_from(["r", "x", "z", "auto"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_test_many_matches_test(self, n, chunk, seed, method):
        scalar = ReservoirSampler(
            16, RandomSource(seed=seed), initial_size=64, skip_method=method
        )
        batch = ReservoirSampler(
            16, RandomSource(seed=seed), initial_size=64, skip_method=method
        )

        scalar_accepts = [i for i in range(n) if scalar.test(i)]
        batch_accepts = []
        done = 0
        while done < n:
            take = min(chunk, n - done)
            consumed, accepted = batch.test_many(take)
            assert consumed == take
            batch_accepts.extend(done + i for i in accepted)
            done += consumed

        assert batch_accepts == scalar_accepts
        assert batch.rng.snapshot() == scalar.rng.snapshot()
        assert batch._seen == scalar._seen

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
        scalar = ReservoirSampler(16, RandomSource(seed=seed), initial_size=initial)
        batch = ReservoirSampler(16, RandomSource(seed=seed), initial_size=initial)

        scalar_placed = []
        for i in range(n):
            slot = scalar.offer(i)
            if slot is not None:
                scalar_placed.append((i, slot))

        batch_placed = []
        done = 0
        while done < n:
            take = min(chunk, n - done)
            consumed, placed = batch.offer_many(take)
            assert consumed == take
            batch_placed.extend((done + index, slot) for index, slot in placed)
            done += consumed

        assert batch_placed == scalar_placed
        assert batch.rng.snapshot() == scalar.rng.snapshot()

    @given(
        seed=st.integers(0, 2**32),
        max_accepts=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_max_accepts_stops_at_acceptance(self, seed, max_accepts):
        """Capped batches stop exactly at the accepting element, leaving the
        sampler state as if the remaining elements were never offered."""
        capped = ReservoirSampler(8, RandomSource(seed=seed), initial_size=512)
        scalar = ReservoirSampler(8, RandomSource(seed=seed), initial_size=512)

        consumed, accepted = capped.test_many(4000, max_accepts=max_accepts)
        assert len(accepted) <= max_accepts
        scalar_hits = [i for i in range(consumed) if scalar.test(i)]
        assert accepted == scalar_hits
        if len(accepted) == max_accepts:
            # Stopped exactly on the accepting element.
            assert accepted[-1] == consumed - 1
        assert capped._seen == scalar._seen
