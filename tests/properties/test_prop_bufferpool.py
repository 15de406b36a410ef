"""Property-based tests: the buffer pool honours the fidelity contract.

PR 5's contract has two halves.  **Disabled** (capacity 0, the default):
a ``BufferPool`` wrapped around every device must be a perfect no-op --
sample contents, candidate log, AccessStats, online/offline charges and
PRNG state bit-identical to bare devices, across all four refresh
algorithms and every policy.  **Enabled**: the data plane must be
untouched (same sample, same RNG -- the pool consumes no randomness and
always reads its own writes) while the *device* sees no more accesses
than the bare run, because hits and coalesced writes never reach it.

Equality here is exact, not statistical: the pool sits below the cost
model's charge points, so a single leaked or double-charged access fails
the fingerprint comparison.
"""

from hypothesis import given, settings, strategies as st

from repro.core.maintenance import SampleMaintainer
from repro.core.policies import ManualPolicy, PeriodicPolicy, ThresholdPolicy
from repro.core.refresh.array import ArrayRefresh
from repro.core.refresh.naive import NaiveCandidateRefresh
from repro.core.refresh.nomem import NomemRefresh
from repro.core.refresh.stack import StackRefresh
from repro.core.reservoir import build_reservoir
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.bufferpool import BufferPool
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import IntRecordCodec

SAMPLE_SIZE = 32
INITIAL_DATASET = 120

ALGORITHMS = {
    "array": ArrayRefresh,
    "stack": StackRefresh,
    "nomem": NomemRefresh,
    "naive": NaiveCandidateRefresh,
}


def _build(policy, seed, algorithm, strategy="candidate", pool_capacity=None):
    """Maintainer over simulated devices; ``pool_capacity`` wraps them.

    ``None`` leaves the devices bare; ``0`` wraps them in a *disabled*
    pool (the fidelity baseline); anything larger enables caching.
    """
    rng = RandomSource(seed=seed)
    cost = CostModel()
    codec = IntRecordCodec()
    pools = []

    def device(name):
        dev = SimulatedBlockDevice(cost, name)
        if pool_capacity is None:
            return dev
        pool = BufferPool(dev, capacity=pool_capacity, readahead=4)
        pools.append(pool)
        return pool

    sample = SampleFile(device("sample"), codec, SAMPLE_SIZE)
    initial, seen = build_reservoir(range(INITIAL_DATASET), SAMPLE_SIZE, rng)
    sample.initialize(initial)
    maintainer = SampleMaintainer(
        sample,
        rng,
        strategy=strategy,
        initial_dataset_size=seen,
        log=LogFile(device("log"), codec),
        algorithm=ALGORITHMS[algorithm](),
        policy=policy,
        cost_model=cost,
    )
    return maintainer, sample, cost, pools


def _run(maintainer, inserts):
    maintainer.insert_many(range(INITIAL_DATASET, INITIAL_DATASET + inserts))
    maintainer.refresh()


def _fingerprint(maintainer, sample, cost):
    stats = maintainer.stats
    return {
        "sample": sample.peek_all(),
        "pending_log": maintainer.pending_log_elements,
        "refreshes": stats.refreshes,
        "online": stats.online,
        "offline": stats.offline,
        "rng": maintainer._rng.snapshot(),
        "device": cost.stats,
    }


def _policies():
    return st.sampled_from(
        [
            ("manual", lambda: ManualPolicy()),
            ("periodic-37", lambda: PeriodicPolicy(37)),
            ("periodic-250", lambda: PeriodicPolicy(250)),
            ("threshold-23", lambda: ThresholdPolicy(23)),
        ]
    )


class TestDisabledPoolFidelity:
    @given(
        algorithm=st.sampled_from(sorted(ALGORITHMS)),
        policy=_policies(),
        strategy=st.sampled_from(["candidate", "full", "immediate"]),
        seed=st.integers(0, 2**32),
        inserts=st.integers(min_value=0, max_value=900),
    )
    @settings(max_examples=60, deadline=None)
    def test_capacity_zero_is_bit_identical_to_bare_devices(
        self, algorithm, policy, strategy, seed, inserts
    ):
        _, make_policy = policy
        bare, bare_sample, bare_cost, _ = _build(
            make_policy(), seed, algorithm, strategy=strategy
        )
        wrapped, wrapped_sample, wrapped_cost, pools = _build(
            make_policy(), seed, algorithm, strategy=strategy, pool_capacity=0
        )

        _run(bare, inserts)
        _run(wrapped, inserts)

        assert _fingerprint(wrapped, wrapped_sample, wrapped_cost) == _fingerprint(
            bare, bare_sample, bare_cost
        )
        for pool in pools:
            assert not pool.enabled
            # A disabled pool holds nothing back and records nothing.
            assert pool.stats.as_dict() == BufferPool(
                SimulatedBlockDevice(CostModel(), "ref"), capacity=0
            ).stats.as_dict()

    @given(
        algorithm=st.sampled_from(sorted(ALGORITHMS)),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=20, deadline=None)
    def test_candidate_log_identical_through_disabled_pool(self, algorithm, seed):
        bare, _, _, _ = _build(ManualPolicy(), seed, algorithm)
        wrapped, _, _, _ = _build(ManualPolicy(), seed, algorithm, pool_capacity=0)
        bare.insert_many(range(INITIAL_DATASET, INITIAL_DATASET + 400))
        wrapped.insert_many(range(INITIAL_DATASET, INITIAL_DATASET + 400))
        assert wrapped.log.peek_all() == bare.log.peek_all()


class TestEnabledPoolFidelity:
    @given(
        algorithm=st.sampled_from(sorted(ALGORITHMS)),
        policy=_policies(),
        capacity=st.sampled_from([1, 4, 64]),
        seed=st.integers(0, 2**32),
        inserts=st.integers(min_value=0, max_value=900),
    )
    @settings(max_examples=60, deadline=None)
    def test_enabled_pool_preserves_data_and_never_adds_accesses(
        self, algorithm, policy, capacity, seed, inserts
    ):
        _, make_policy = policy
        bare, bare_sample, bare_cost, _ = _build(make_policy(), seed, algorithm)
        pooled, pooled_sample, pooled_cost, pools = _build(
            make_policy(), seed, algorithm, pool_capacity=capacity
        )

        _run(bare, inserts)
        _run(pooled, inserts)

        # Data plane untouched: contents and randomness are pool-invariant.
        assert pooled_sample.peek_all() == bare_sample.peek_all()
        assert pooled._rng.snapshot() == bare._rng.snapshot()
        assert pooled.stats.refreshes == bare.stats.refreshes
        # The device under the pool never sees MORE traffic than bare.
        assert (
            pooled_cost.stats.total_accesses <= bare_cost.stats.total_accesses
        )
        # Conservation: every file-layer read was a hit or a miss.
        for pool in pools:
            assert pool.enabled
            assert pool.stats.hits + pool.stats.misses >= pool.stats.evictions

    def test_enabled_pool_strictly_reduces_refresh_traffic(self):
        """A representative workload shows a real saving, not just parity."""
        bare, bare_sample, bare_cost, _ = _build(PeriodicPolicy(100), 7, "stack")
        pooled, pooled_sample, pooled_cost, pools = _build(
            PeriodicPolicy(100), 7, "stack", pool_capacity=64
        )
        _run(bare, 650)
        _run(pooled, 650)

        assert pooled_sample.peek_all() == bare_sample.peek_all()
        assert pooled_cost.stats.total_accesses < bare_cost.stats.total_accesses
        assert any(pool.stats.hits > 0 for pool in pools)
        assert any(pool.stats.flushed_blocks > 0 for pool in pools)
