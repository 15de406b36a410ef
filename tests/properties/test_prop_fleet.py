"""Property-based tests: the fleet layer's two anchor invariants.

**1-shard invisibility** -- a fleet of one shard, with fan-out and
quotas off, is nothing but a serve-sim run wearing a hat: shard
``shard00``'s report must be *bit-identical* (canonical JSON, trace
included) to ``run_simulation`` of the embedded
:class:`~repro.serve.sim.SimConfig`, across algorithms, scheduling
policies, freshness mixes (via the staleness bound) and admission
settings.  This pins the fleet's per-sample seed derivation, workload
stream and scheduler wiring to serve's, byte for byte -- any drift in
either layer breaks the property.

**Placement stability** -- consistent hashing's disruption bound: adding
one shard to a ring with K placed samples moves only ~K/N of them, and
*every* moved sample lands on the new shard (arcs are only ever claimed
by the newcomer's virtual nodes).  The moved-count bound is statistical,
so it gets generous slack; the moved-destination claim is exact.
"""

from __future__ import annotations

import json
import os

from hypothesis import given, settings, strategies as st

from repro.fleet.ring import HashRing, rebalance_plan
from repro.fleet.sim import FleetConfig, run_fleet_simulation
from repro.serve.sim import SimConfig, run_simulation

MAX_EXAMPLES = int(os.environ.get("REPRO_PROP_MAX_EXAMPLES", "10"))


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    samples=st.integers(min_value=1, max_value=4),
    events=st.integers(min_value=0, max_value=60),
    algorithm=st.sampled_from(("array", "stack", "nomem", "naive")),
    policy=st.sampled_from(("fifo:32", "longest-log:64", "deadline:128")),
    staleness_bound=st.sampled_from((16, 256)),
    ingest_fraction=st.sampled_from((0.2, 0.5, 0.8)),
)
def test_one_shard_fleet_is_invisible(
    seed, samples, events, algorithm, policy, staleness_bound, ingest_fraction
):
    config = FleetConfig(
        serve=SimConfig(
            seed=seed,
            samples=samples,
            events=events,
            algorithm=algorithm,
            policy=policy,
            staleness_bound=staleness_bound,
            ingest_fraction=ingest_fraction,
        ),
        shards=1,
        engine="full",
    )
    fleet = run_fleet_simulation(config)
    serve = run_simulation(config.serve)
    shard = json.dumps(fleet.shards["shard00"], sort_keys=True)
    plain = json.dumps(serve.to_dict(), sort_keys=True)
    assert shard == plain


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    samples=st.integers(min_value=1, max_value=4),
    events=st.integers(min_value=0, max_value=60),
    algorithm=st.sampled_from(("array", "naive")),
    kinds=st.sampled_from(
        (("weighted",), ("window",), ("weighted:5", "window", "uniform"))
    ),
)
def test_one_shard_fleet_is_invisible_with_kinds(
    seed, samples, events, algorithm, kinds
):
    """Kind assignment follows the *global* sample index, so a 1-shard
    fleet running mixed kinds is still a serve-sim run wearing a hat."""
    config = FleetConfig(
        serve=SimConfig(
            seed=seed,
            samples=samples,
            events=events,
            algorithm=algorithm,
            kinds=kinds,
        ),
        shards=1,
        engine="full",
    )
    fleet = run_fleet_simulation(config)
    serve = run_simulation(config.serve)
    shard = json.dumps(fleet.shards["shard00"], sort_keys=True)
    plain = json.dumps(serve.to_dict(), sort_keys=True)
    assert shard == plain


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    samples=st.integers(min_value=1, max_value=4),
    events=st.integers(min_value=1, max_value=50),
)
def test_one_shard_fleet_is_invisible_with_admission(seed, samples, events):
    # The defer path re-queues events under fresh seqs -- the fleet must
    # stay invisible through that bookkeeping too.
    config = FleetConfig(
        serve=SimConfig(
            seed=seed,
            samples=samples,
            events=events,
            max_queue_depth=2,
            overload_action="defer",
        ),
        shards=1,
        engine="full",
    )
    fleet = run_fleet_simulation(config)
    serve = run_simulation(config.serve)
    assert json.dumps(fleet.shards["shard00"], sort_keys=True) == json.dumps(
        serve.to_dict(), sort_keys=True
    )


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    shards=st.integers(min_value=2, max_value=12),
    keys=st.integers(min_value=64, max_value=512),
    vnodes=st.sampled_from((32, 64)),
)
def test_adding_a_shard_moves_only_to_the_new_shard(seed, shards, keys, vnodes):
    names = [f"shard{index:02d}" for index in range(shards)]
    before = HashRing(seed=seed, vnodes=vnodes, shards=names)
    newcomer = f"shard{shards:02d}"
    after = before.spawn(add=newcomer)
    key_names = [f"s{index:02d}" for index in range(keys)]
    plan = rebalance_plan(before, after, key_names)
    # Exact: arcs are only claimed by the newcomer, so every move lands
    # on it and every stayed key keeps its old owner.
    assert plan.destinations() <= {newcomer}
    assert plan.moved + plan.stayed == keys
    for key, source, destination in plan.moves:
        assert source != destination
        assert before.place(key) == source
        assert after.place(key) == destination
    # Statistical: expected disruption is K/(N+1); allow wide slack (the
    # binomial tail at vnodes>=32 stays well inside 4x + a constant).
    expected = keys / (shards + 1)
    assert plan.moved <= 4 * expected + 8


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    shards=st.integers(min_value=2, max_value=10),
    keys=st.integers(min_value=32, max_value=256),
)
def test_removing_a_shard_moves_only_its_own_keys(seed, shards, keys):
    names = [f"shard{index:02d}" for index in range(shards)]
    before = HashRing(seed=seed, vnodes=32, shards=names)
    victim = names[seed % shards]
    after = before.spawn(drop=victim)
    key_names = [f"s{index:02d}" for index in range(keys)]
    plan = rebalance_plan(before, after, key_names)
    # Mirror image of addition: only keys the victim owned move.
    assert plan.sources() <= {victim}
    assert all(shard != victim for _, _, shard in plan.moves)
