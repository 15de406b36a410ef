"""Property-based tests: the bounded-staleness serving guarantee.

The serving layer's contract (docs/serving.md): a query issued with
``bounded_staleness(k)`` is never answered from a sample whose candidate
log holds more than ``k`` pending elements -- the read path forces a
refresh first.  The guarantee must hold for every refresh algorithm and
every background scheduling policy, because the background scheduler only
*reduces* backlogs; the read-path check is what enforces the bound.

Each example runs a full end-to-end simulation and checks the invariant
against the trace: every answered query records the staleness it was
served at, and for bounded queries that number can never exceed the bound.
"""

from hypothesis import given, settings, strategies as st

from repro.serve.session import Freshness
from repro.serve.sim import SimConfig, run_simulation

ALGORITHMS = ("array", "stack", "nomem")
POLICIES = ("fifo:32", "longest-log:32", "deadline:96", "fifo:1000000")


@given(
    seed=st.integers(0, 2**32),
    algorithm=st.sampled_from(ALGORITHMS),
    policy=st.sampled_from(POLICIES),
    bound=st.integers(min_value=0, max_value=512),
)
@settings(max_examples=40, deadline=None)
def test_bounded_queries_never_exceed_bound(seed, algorithm, policy, bound):
    """No bounded_staleness(k) query is answered with staleness > k, no
    matter which algorithm maintains the sample or which policy runs
    background refreshes (including one that effectively never runs)."""
    report = run_simulation(
        SimConfig(
            seed=seed,
            events=120,
            samples=2,
            sample_size=64,
            algorithm=algorithm,
            policy=policy,
            staleness_bound=bound,
        )
    )
    bounded = [
        entry
        for entry in report.trace
        if entry["kind"] == "query"
        and entry["freshness"] == f"bounded_staleness:{bound}"
    ]
    for entry in bounded:
        assert entry["staleness"] <= bound
    # The workload mixes modes with fixed weights, so bounded queries
    # are present in every non-degenerate run.
    if report.queries_answered >= 20:
        assert bounded


#: kind mixes for the all-kinds form of the property; non-uniform kinds
#: are maintained by the kind-capable algorithms (naive/array) only
KIND_MIXES = (
    ("weighted",),
    ("window",),
    ("weighted:5", "window"),
    ("uniform", "weighted", "window"),
)
KIND_ALGORITHMS = ("naive", "array")


@given(
    seed=st.integers(0, 2**32),
    algorithm=st.sampled_from(KIND_ALGORITHMS),
    policy=st.sampled_from(POLICIES),
    bound=st.integers(min_value=0, max_value=512),
    kinds=st.sampled_from(KIND_MIXES),
)
@settings(max_examples=40, deadline=None)
def test_bounded_queries_never_exceed_bound_for_any_kind(
    seed, algorithm, policy, bound, kinds
):
    """The same guarantee with non-uniform kinds in the catalog: answered
    staleness is the kind's *effective* staleness (a window sample caps
    it at W), and the read path enforces the bound against that number,
    so mixed-kind catalogs keep the contract under every kind-capable
    algorithm and every policy."""
    report = run_simulation(
        SimConfig(
            seed=seed,
            events=120,
            samples=3,
            sample_size=64,
            algorithm=algorithm,
            policy=policy,
            staleness_bound=bound,
            kinds=kinds,
        )
    )
    bounded = [
        entry
        for entry in report.trace
        if entry["kind"] == "query"
        and entry["freshness"] == f"bounded_staleness:{bound}"
    ]
    for entry in bounded:
        assert entry["staleness"] <= bound
    if report.queries_answered >= 20:
        assert bounded


@given(
    seed=st.integers(0, 2**32),
    pending=st.integers(min_value=0, max_value=300),
    bound=st.integers(min_value=0, max_value=300),
)
@settings(max_examples=60, deadline=None)
def test_read_path_enforces_bound_directly(seed, pending, bound):
    """Unit-level form of the same property: a single bounded query
    against a catalog with a known backlog."""
    from repro.core.kinds import restore_kind
    from repro.serve.catalog import SampleCatalog
    from repro.serve.session import QuerySession

    catalog = SampleCatalog()
    catalog.create("t", sample_size=32, seed=seed)
    maintainer = catalog.get("t")
    value = maintainer.dataset_size
    if pending:
        # Backlogs of hundreds of candidates need millions of arrivals at
        # M = 32.  A throwaway copy of the acceptance state (kind and
        # PRNG, restored from the manifest) finds how many arrivals yield
        # exactly ``pending`` candidates; the batch path consumes the same
        # draws as scalar inserts, so the maintainer lands on it too.
        checkpoint = maintainer.checkpoint_state()
        probe = restore_kind(checkpoint)
        arrivals, _ = probe.offer_many(
            range(value, value + 2**40), checkpoint.restore_rng(), pending
        )
        maintainer.insert_many(range(value, value + arrivals))
    backlog = maintainer.pending_log_elements
    assert backlog == pending
    answer = QuerySession(catalog).execute("t", Freshness.bounded(bound))
    assert answer.staleness <= bound
    assert answer.refreshed == (backlog > bound)
    # And the answer reports the staleness it was actually served at.
    assert answer.staleness == maintainer.pending_log_elements
