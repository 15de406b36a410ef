"""Property-based tests: deferred maintenance of non-uniform sample kinds.

The tentpole claim of the kind abstraction (docs/sample_kinds.md): for
every registered kind, deferred maintenance through the candidate log is
**bit-identical** to immediate maintenance -- same final sample rows,
same kind state, same PRNG state -- no matter which kind-capable refresh
algorithm runs the replay, where refreshes land in the stream, or whether
inserts arrive scalar or batched.

The reference is :mod:`tests.properties.kind_oracle`: in-memory
immediate maintenance that draws once per arriving element, exactly like
the deferred log phase, written without any of the kinds' code.  Every
example builds the same initial sample from the same seed, feeds the
same element stream, and compares the end state field by field.
"""

from hypothesis import given, settings, strategies as st

from repro.core.kinds import make_kind
from repro.core.maintenance import SampleMaintainer
from repro.core.policies import ManualPolicy, PeriodicPolicy
from repro.core.refresh.array import ArrayRefresh
from repro.core.refresh.naive import NaiveCandidateRefresh
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from tests.properties import kind_oracle

KIND_SPECS = ("weighted", "weighted:5", "window")
#: Uniform defers its victim draws to refresh time, so it is bit-exact
#: against itself (scalar vs batch), not against the eager oracle.
ALL_KIND_SPECS = ("uniform",) + KIND_SPECS
ALGORITHMS = {"naive": NaiveCandidateRefresh, "array": ArrayRefresh}


class DeferredKindRun:
    """One kind-driven maintainer on simulated disk, from a single seed."""

    def __init__(
        self, kind_spec, sample_size, dataset_size, seed, algorithm, policy,
        refresh=None,
    ):
        self.cost = CostModel()
        self.rng = RandomSource(seed=seed)
        self.kind = make_kind(kind_spec, sample_size)
        codec = self.kind.codec(16)
        rows = self.kind.build_initial(list(range(dataset_size)), self.rng)
        self.sample = SampleFile(
            SimulatedBlockDevice(self.cost, "sample"), codec, sample_size
        )
        self.sample.initialize(rows)
        self.maintainer = SampleMaintainer(
            self.sample,
            self.rng,
            strategy="candidate",
            initial_dataset_size=self.kind.seen,
            log=LogFile(SimulatedBlockDevice(self.cost, "log"), codec),
            algorithm=refresh if refresh is not None else ALGORITHMS[algorithm](),
            policy=policy,
            cost_model=self.cost,
            kind=self.kind,
        )

    def state(self):
        """Everything the bit-identity property compares."""
        threshold = getattr(self.kind, "threshold", None)
        return (
            self.sample.peek_all(),
            self.kind.seen,
            threshold,
            self.rng.snapshot(),
        )


def eager_state(kind_spec, sample_size, dataset_size, elements, seed):
    """The immediate-maintenance oracle's end state for the same stream."""
    rng = RandomSource(seed=seed)
    stream = list(range(dataset_size)) + list(elements)
    rows, seen, threshold = kind_oracle.eager(kind_spec, sample_size, stream, rng)
    return (rows, seen, threshold, rng.snapshot())


@given(
    kind_spec=st.sampled_from(KIND_SPECS),
    algorithm=st.sampled_from(sorted(ALGORITHMS)),
    m=st.integers(min_value=1, max_value=48),
    extra=st.integers(min_value=0, max_value=120),
    inserts=st.integers(min_value=0, max_value=300),
    refresh_every=st.integers(min_value=1, max_value=80),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_deferred_matches_eager_oracle_bit_for_bit(
    kind_spec, algorithm, m, extra, inserts, refresh_every, seed
):
    """Arbitrary refresh points never change the final state: the log is a
    superset of the eager accepts (weighted: stale thresholds only
    over-admit; window: everything logs) and the replay re-filters it to
    exactly the eager sample, consuming zero randomness."""
    dataset = m + extra
    run = DeferredKindRun(
        kind_spec, m, dataset, seed, algorithm, PeriodicPolicy(refresh_every)
    )
    elements = list(range(10_000, 10_000 + inserts))
    for element in elements:
        run.maintainer.insert(element)
    run.maintainer.refresh()
    assert run.state() == eager_state(kind_spec, m, dataset, elements, seed)
    assert run.maintainer.pending_log_elements == 0


@given(
    kind_spec=st.sampled_from(KIND_SPECS),
    m=st.integers(min_value=1, max_value=48),
    extra=st.integers(min_value=0, max_value=120),
    inserts=st.integers(min_value=0, max_value=300),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_naive_and_array_leave_identical_state(kind_spec, m, extra, inserts, seed):
    """Kind replays are deterministic given the log, so the random-write
    and sorted-sequential-write algorithms agree byte for byte -- sample,
    kind state, PRNG -- and differ only in I/O pattern."""
    runs = {
        name: DeferredKindRun(kind_spec, m, m + extra, seed, name, ManualPolicy())
        for name in ALGORITHMS
    }
    for run in runs.values():
        run.maintainer.insert_many(range(10_000, 10_000 + inserts))
        run.maintainer.refresh()
    assert runs["naive"].state() == runs["array"].state()


@given(
    kind_spec=st.sampled_from(ALL_KIND_SPECS),
    m=st.integers(min_value=1, max_value=48),
    extra=st.integers(min_value=0, max_value=120),
    inserts=st.integers(min_value=0, max_value=300),
    refresh_every=st.integers(min_value=1, max_value=80),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_scalar_and_batch_inserts_are_bit_identical(
    kind_spec, m, extra, inserts, refresh_every, seed
):
    """Kinds draw element-wise (exactly one uniform per weighted record,
    none per window record), so the batched log phase reproduces the
    scalar path draw for draw -- including where the periodic policy
    fires -- and the I/O accounting matches too."""
    scalar = DeferredKindRun(
        kind_spec, m, m + extra, seed, "array", PeriodicPolicy(refresh_every)
    )
    batch = DeferredKindRun(
        kind_spec, m, m + extra, seed, "array", PeriodicPolicy(refresh_every)
    )
    elements = list(range(10_000, 10_000 + inserts))
    for element in elements:
        scalar.maintainer.insert(element)
    batch.maintainer.insert_many(elements)
    assert scalar.state() == batch.state()
    assert (
        scalar.maintainer.pending_log_elements
        == batch.maintainer.pending_log_elements
    )
    assert scalar.maintainer.stats.refreshes == batch.maintainer.stats.refreshes
    assert scalar.cost.stats == batch.cost.stats
    assert scalar.maintainer.stats.online == batch.maintainer.stats.online
    assert scalar.maintainer.stats.offline == batch.maintainer.stats.offline


@given(
    algorithm=st.sampled_from(sorted(ALGORITHMS)),
    m=st.integers(min_value=2, max_value=32),
    extra=st.integers(min_value=0, max_value=60),
    inserts=st.integers(min_value=50, max_value=200),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=30, deadline=None)
def test_shared_refresh_object_uses_each_maintainers_kind(
    algorithm, m, extra, inserts, seed
):
    """One refresh instance serving two weighted samples (different weight
    moduli, different seeds) replays each sample under its *own* kind --
    threshold and commit included -- so both still equal the oracle."""
    shared = ALGORITHMS[algorithm]()
    elements = list(range(10_000, 10_000 + inserts))
    first = DeferredKindRun(
        "weighted", m, m + extra, seed, algorithm, ManualPolicy(), refresh=shared
    )
    second = DeferredKindRun(
        "weighted:3", m, m + extra, seed + 1, algorithm, ManualPolicy(), refresh=shared
    )
    for run in (first, second):
        run.maintainer.insert_many(elements)
    for run in (first, second):
        run.maintainer.refresh()
    assert first.state() == eager_state("weighted", m, m + extra, elements, seed)
    assert second.state() == eager_state("weighted:3", m, m + extra, elements, seed + 1)
