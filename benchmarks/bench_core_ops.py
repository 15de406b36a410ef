"""Micro-benchmarks of the core operations.

Throughput of the primitives every maintenance strategy is built from:
reservoir acceptance, geometric skips, the three refresh precomputations,
a full refresh against the simulated disk, and -- the paper's headline
scaling claim -- the online insert path, scalar vs. skip-based batch.

The insert benchmarks record ``elements_per_sec`` in their
pytest-benchmark ``extra_info``; CI's ``bench-smoke`` job writes the JSON
report (``BENCH_core_ops.json``) and ``repro bench-compare`` gates the
batch-path numbers against the committed baseline (docs/performance.md).
"""

import pytest

from repro.core.logs import CandidateLogSource
from repro.core.maintenance import SampleMaintainer
from repro.core.policies import ManualPolicy, PeriodicPolicy
from repro.core.refresh.array import ArrayRefresh
from repro.core.refresh.nomem import NomemRefresh, span_of_gaps, survivor_indexes
from repro.core.refresh.stack import StackRefresh, select_final_indexes
from repro.core.reservoir import ReservoirSampler
from repro.rng.random_source import RandomSource
from repro.rng.sequential import selection_windows
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.bufferpool import BufferPool
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from repro.storage.records import IntRecordCodec
from repro.stream.source import uniform_batches, uniform_stream
from tests.core.conftest import RefreshHarness


def test_reservoir_offer_throughput(benchmark):
    """The full reservoir step one arrival at a time: a batch of one."""

    def run():
        rng = RandomSource(seed=1)
        sampler = ReservoirSampler(1000, rng, initial_size=100_000)
        return sum(len(sampler.offer_many(1)[1]) for _ in range(20_000))

    accepted = benchmark(run)
    assert 0 < accepted < 2000


def test_candidate_test_throughput(benchmark):
    """The candidate test one arrival at a time: a batch of one."""

    def run():
        rng = RandomSource(seed=2)
        sampler = ReservoirSampler(1000, rng, initial_size=100_000)
        return sum(len(sampler.test_many(1)[1]) for _ in range(20_000))

    accepted = benchmark(run)
    assert 0 < accepted < 2000


def test_geometric_draw_throughput(benchmark):
    def run():
        rng = RandomSource(seed=3)
        return sum(rng.geometric(0.25) for _ in range(10_000))

    total = benchmark(run)
    assert total > 0


def test_stack_precompute(benchmark):
    rng = RandomSource(seed=4)
    selected = benchmark(lambda: select_final_indexes(rng, 10_000, 15_000))
    assert len(selected) <= 10_000


def test_array_precompute(benchmark):
    rng = RandomSource(seed=5)

    def run():
        array = ArrayRefresh.assign_slots(rng, 10_000, 15_000)
        return ArrayRefresh.final_candidates(array)

    slots, ordinals = benchmark(run)
    assert len(slots) == len(ordinals) <= 10_000


def test_nomem_precompute(benchmark):
    rng = RandomSource(seed=6)
    span = benchmark(lambda: span_of_gaps(rng, 10_000))
    assert span >= 9_999


@pytest.mark.parametrize("algorithm", ["stack", "nomem"])
def test_refresh_precompute(benchmark, algorithm):
    """One pass of M - 1 = 2,047 geometric skips, at perfbench ``ingest``'s
    sample size: Stack over a log long enough that it never stops early,
    Nomem's pass 1.  Ungated; ``gaps_per_sec`` is the rate of skips."""
    m = 2048
    rng = RandomSource(seed=8)
    if algorithm == "stack":
        result = benchmark(lambda: len(select_final_indexes(rng, m, 10**9)))
        assert result == m
    else:
        result = benchmark(lambda: span_of_gaps(rng, m))
        assert result >= m - 1
    benchmark.extra_info["gaps_per_sec"] = (m - 1) / benchmark.stats.stats.mean


@pytest.mark.parametrize("log", ["short", "long"])
def test_nomem_survivors(benchmark, log):
    """Both of a refresh's Nomem passes, drained, at M = 2,048: a short log
    (|C| = M/50, so all but |C| gaps are jumped over) and a long one
    (|C| = 2M, no jump).  Ungated; ``gaps_per_sec`` counts the gaps
    computed, 2 min(M-1, |C|)."""
    m = 2048
    candidates = m // 50 if log == "short" else 2 * m
    rng = RandomSource(seed=10)

    def run():
        count, indexes = survivor_indexes(rng, m, candidates)
        return count, sum(1 for _ in indexes)

    count, drained = benchmark(run)
    assert count == drained >= 1
    gaps = 2 * min(m - 1, candidates)
    benchmark.extra_info["gaps_per_sec"] = gaps / benchmark.stats.stats.mean


def _selected(rng, n, total):
    return sum(len(window) for window in selection_windows(rng, n, total))


def test_write_phase_selection(benchmark):
    """Method S over the sample: which 1,000 of 10,000 positions a refresh
    displaces, drawn and handed out a window of uniforms at a time."""
    rng = RandomSource(seed=7)
    selected = benchmark(lambda: _selected(rng, 1_000, 10_000))
    benchmark.extra_info["positions_per_sec"] = 10_000 / benchmark.stats.stats.mean
    assert selected == 1_000


def test_write_phase_selection_dense(benchmark):
    """Method S where about half the positions are displaced: 2,000 of
    4,096, so nearly every position is a candidate walked in Python."""
    rng = RandomSource(seed=7)
    selected = benchmark(lambda: _selected(rng, 2_000, 4_096))
    benchmark.extra_info["positions_per_sec"] = 4_096 / benchmark.stats.stats.mean
    assert selected == 2_000


def test_stream_spawn(benchmark):
    """One child stream, as every Nomem refresh spawns for its geometric
    skips.  Ungated; ``spawns_per_sec`` is the rate of spawns."""
    rng = RandomSource(seed=9)
    child = benchmark(lambda: rng.spawn("nomem-geometric"))
    benchmark.extra_info["spawns_per_sec"] = 1 / benchmark.stats.stats.mean
    assert 0.0 <= child.random() < 1.0


# -- online insert path: scalar vs. skip-based batch -------------------------
#
# The paper's setting: the dataset is much larger than the sample, so the
# acceptance rate M/|R| is low and skip jumps are long.  The scalar loop
# pays one Python-level call (a batch of one) per element; one batch pays
# O(accepted) -- the gap is the paper's online saving.


def _insert_workload(scale) -> tuple[int, int, int]:
    """(sample_size, initial_dataset, inserts) for the insert benchmarks."""
    sample_size = min(scale.sample_size, 10_000)
    return sample_size, 50 * sample_size, max(10_000, scale.inserts // 10)


def _fresh_maintainer(sample_size: int, initial_dataset: int, seed: int):
    cost = CostModel()
    codec = IntRecordCodec()
    rng = RandomSource(seed=seed)
    sample = SampleFile(SimulatedBlockDevice(cost, "sample"), codec, sample_size)
    sample.initialize(list(range(sample_size)))
    return SampleMaintainer(
        sample,
        rng,
        strategy="candidate",
        initial_dataset_size=initial_dataset,
        log=LogFile(SimulatedBlockDevice(cost, "log"), codec),
        algorithm=StackRefresh(),
        policy=ManualPolicy(),
        cost_model=cost,
    )


def _bench_inserts(benchmark, scale, scalar: bool):
    sample_size, initial_dataset, inserts = _insert_workload(scale)
    stream = range(initial_dataset, initial_dataset + inserts)

    def setup():
        return (_fresh_maintainer(sample_size, initial_dataset, seed=11),), {}

    def run_batch(maintainer):
        maintainer.insert_many(stream)
        return maintainer.stats.candidates_logged

    def run_scalar(maintainer):
        for element in stream:
            maintainer.insert(element)
        return maintainer.stats.candidates_logged

    accepted = benchmark.pedantic(
        run_scalar if scalar else run_batch, setup=setup, rounds=5, warmup_rounds=1
    )
    benchmark.extra_info["elements"] = inserts
    benchmark.extra_info["elements_per_sec"] = inserts / benchmark.stats.stats.mean
    assert 0 < accepted < inserts


def test_insert_scalar_throughput(benchmark, scale):
    """The O(n) per-element online loop: one batch of one per insert."""
    _bench_inserts(benchmark, scale, scalar=True)


# -- kinded insert paths: weighted (one draw per record) and window ---------
#
# The A-ES weighted kind draws one uniform per arriving record (the
# exponential jump is deliberately traded away for deferred/eager
# bit-identity -- docs/sample_kinds.md), so its online path is O(n) draws
# like the scalar uniform path; numpy screens a window's keys, and only
# rows near or below the stale threshold get a Python-level libm key.
# Gated by ``repro bench-compare`` (select matches ``weighted``) so a
# regression in the kind logger's hot loop fails CI.  The window kind
# accepts and logs every row, so its rate is that of the columnar log
# append; its row is not in the committed baseline, so not gated.


def _fresh_kind_maintainer(
    sample_size: int, initial_dataset: int, seed: int, kind: str = "weighted"
):
    from repro.core.kinds import make_kind

    cost = CostModel()
    rng = RandomSource(seed=seed)
    kind = make_kind(kind, sample_size)
    codec = kind.codec(16)
    rows = kind.build_initial(list(range(initial_dataset)), rng)
    sample = SampleFile(SimulatedBlockDevice(cost, "sample"), codec, sample_size)
    sample.initialize(rows)
    return SampleMaintainer(
        sample,
        rng,
        strategy="candidate",
        initial_dataset_size=kind.seen,
        log=LogFile(SimulatedBlockDevice(cost, "log"), codec),
        algorithm=ArrayRefresh(),
        policy=ManualPolicy(),
        cost_model=cost,
        kind=kind,
    )


def _bench_kind_inserts(benchmark, scale, kind: str):
    sample_size, initial_dataset, inserts = _insert_workload(scale)
    # The initial A-ES build draws once per dataset element; keep the
    # dataset bench-sized so setup stays proportionate to the run.
    initial_dataset = min(initial_dataset, 10 * sample_size)
    stream = range(initial_dataset, initial_dataset + inserts)

    def setup():
        return (
            (_fresh_kind_maintainer(sample_size, initial_dataset, seed=19, kind=kind),),
            {},
        )

    def run(maintainer):
        maintainer.insert_many(stream)
        return maintainer.stats.candidates_logged

    accepted = benchmark.pedantic(run, setup=setup, rounds=5, warmup_rounds=1)
    benchmark.extra_info["elements"] = inserts
    benchmark.extra_info["elements_per_sec"] = inserts / benchmark.stats.stats.mean
    assert 0 < accepted <= inserts


def test_weighted_insert_throughput(benchmark, scale):
    """Weighted-kind batched inserts: draw, threshold test, bulk append."""
    _bench_kind_inserts(benchmark, scale, "weighted")


def test_window_insert_throughput(benchmark, scale):
    """Window-kind batched inserts: every row logged as records (ungated)."""
    _bench_kind_inserts(benchmark, scale, "window")


def test_insert_batch_throughput(benchmark, scale):
    """The O(accepted) skip walk over one batch (bit-identical to the
    scalar loop)."""
    _bench_inserts(benchmark, scale, scalar=False)


# -- fleet ingest: a list of maintainers, scalar vs. batch ------------------
#
# A fleet is a plain list of maintainers over one shared cost model.  The
# batch variant hands the whole stream to each maintainer's skip-based
# insert_many (maintainer-major; the serving catalog's SampleCatalog.ingest
# does the same, one sample per batch).  The scalar variant is the
# element-major loop (one Python-level insert per element per sample) --
# the fleet-sized version of the same gap.

FLEET_SIZE = 4


def _fresh_fleet(sample_size: int, initial_dataset: int, seed: int):
    cost = CostModel()
    codec = IntRecordCodec()
    root = RandomSource(seed=seed)
    fleet = []
    for index in range(FLEET_SIZE):
        rng = root.spawn(f"sample-{index}")
        sample = SampleFile(
            SimulatedBlockDevice(cost, f"s{index}.sample"), codec, sample_size
        )
        sample.initialize(list(range(sample_size)))
        fleet.append(
            SampleMaintainer(
                sample,
                rng,
                strategy="candidate",
                initial_dataset_size=initial_dataset,
                log=LogFile(SimulatedBlockDevice(cost, f"s{index}.log"), codec),
                algorithm=StackRefresh(),
                policy=ManualPolicy(),
                cost_model=cost,
            )
        )
    return fleet


def _bench_fleet_ingest(benchmark, scale, scalar: bool):
    sample_size, initial_dataset, inserts = _insert_workload(scale)
    inserts = max(10_000, inserts // FLEET_SIZE)
    stream = range(initial_dataset, initial_dataset + inserts)

    def setup():
        return (_fresh_fleet(sample_size, initial_dataset, seed=13),), {}

    def run_batch(fleet):
        for maintainer in fleet:
            maintainer.insert_many(stream)
        return sum(m.stats.candidates_logged for m in fleet)

    def run_scalar(fleet):
        for element in stream:
            for maintainer in fleet:
                maintainer.insert(element)
        return sum(m.stats.candidates_logged for m in fleet)

    accepted = benchmark.pedantic(
        run_scalar if scalar else run_batch, setup=setup, rounds=5, warmup_rounds=1
    )
    processed = inserts * FLEET_SIZE
    benchmark.extra_info["elements"] = processed
    benchmark.extra_info["fleet_size"] = FLEET_SIZE
    benchmark.extra_info["elements_per_sec"] = processed / benchmark.stats.stats.mean
    assert 0 < accepted < processed


def test_fleet_ingest_scalar_throughput(benchmark, scale):
    """Element-major fleet broadcast: O(batch x fleet) Python-level work."""
    _bench_fleet_ingest(benchmark, scale, scalar=True)


def test_fleet_ingest_batch_throughput(benchmark, scale):
    """Per-maintainer skip-based delegation: O(accepted) per sample."""
    _bench_fleet_ingest(benchmark, scale, scalar=False)


# -- pool effectiveness: refresh traffic with and without the page cache -----
#
# PR 5's claim: an enabled BufferPool cuts device block accesses on the
# insert -> refresh cycle (log re-reads become frame hits, sample writes
# coalesce behind flush barriers) without touching the data plane.  The
# gated throughput is the pooled cycle; the bare cycle's access count is
# recorded alongside so the report shows the reduction.


def _pool_cycle(pool_capacity: int, sample_size: int, initial: int, inserts: int):
    """One insert->refresh workload; returns total device block accesses."""
    cost = CostModel()
    codec = IntRecordCodec()
    rng = RandomSource(seed=17)

    def device(name):
        dev = SimulatedBlockDevice(cost, name)
        if pool_capacity == 0:
            return dev
        return BufferPool(dev, capacity=pool_capacity, readahead=8)

    sample = SampleFile(device("sample"), codec, sample_size)
    sample.initialize(list(range(sample_size)))
    maintainer = SampleMaintainer(
        sample,
        rng,
        strategy="candidate",
        initial_dataset_size=initial,
        log=LogFile(device("log"), codec),
        algorithm=StackRefresh(),
        policy=PeriodicPolicy(max(1, inserts // 4)),
        cost_model=cost,
    )
    maintainer.insert_many(range(initial, initial + inserts))
    maintainer.refresh()
    return cost.stats.total_accesses


def test_pool_refresh_cycle_throughput(benchmark, scale):
    """Insert->refresh through an enabled pool; gated like the batch path."""
    sample_size, initial_dataset, inserts = _insert_workload(scale)
    bare_accesses = _pool_cycle(0, sample_size, initial_dataset, inserts)

    pooled_accesses = benchmark(
        lambda: _pool_cycle(64, sample_size, initial_dataset, inserts)
    )
    benchmark.extra_info["elements"] = inserts
    benchmark.extra_info["elements_per_sec"] = inserts / benchmark.stats.stats.mean
    benchmark.extra_info["device_accesses_bare"] = bare_accesses
    benchmark.extra_info["device_accesses_pooled"] = pooled_accesses
    benchmark.extra_info["access_reduction"] = 1 - pooled_accesses / bare_accesses
    # The benchmark doubles as the effectiveness check: fewer accesses, always.
    assert pooled_accesses < bare_accesses


def _replicated_cycle(
    sample_size: int, initial: int, inserts: int, lag_budget: float
):
    """The pooled insert->refresh cycle with a replication link attached.

    Mirrors ``_pool_cycle(64, ...)`` exactly, plus capture devices, a
    group commit barrier sealing into the link, and budget-clocked
    shipping to the replica -- the full primary-side replication tax.
    Returns ``(primary_accesses, link)``.
    """
    from repro.replication.link import ReplicationLink
    from repro.storage.group_commit import GroupCommitBarrier

    cost = CostModel()
    codec = IntRecordCodec()
    rng = RandomSource(seed=17)
    link = ReplicationLink(lag_budget=lag_budget)

    def device(name):
        return BufferPool(
            link.attach(SimulatedBlockDevice(cost, name), name),
            capacity=64,
            readahead=8,
        )

    sample_device = device("sample")
    log_device = device("log")
    sample = SampleFile(sample_device, codec, sample_size)
    sample.initialize(list(range(sample_size)))
    maintainer = SampleMaintainer(
        sample,
        rng,
        strategy="candidate",
        initial_dataset_size=initial,
        log=LogFile(log_device, codec),
        algorithm=StackRefresh(),
        policy=PeriodicPolicy(max(1, inserts // 4)),
        cost_model=cost,
        commit_group=GroupCommitBarrier([sample_device, log_device], link=link),
    )
    maintainer.insert_many(range(initial, initial + inserts))
    maintainer.refresh()
    # The post-refresh ship point (a manifest save's group commit in the
    # catalog): the refresh itself is flush-only, so this seal is what
    # turns the accumulated captures into a shippable batch.  Devices are
    # clean after the refresh commit, so it costs no block accesses.
    maintainer.commit_group.commit()
    link.ship_due(cost.cost_seconds())
    link.ship_all()
    return cost.stats.total_accesses, link


def test_replicated_refresh_cycle_throughput(benchmark, scale):
    """Insert->refresh->ship with replication attached; gated like pool.

    The contract under test is PR 8's: capture is free on the primary
    (bit-identical device accesses to the pooled cycle) and the whole
    seal/ship/apply pipeline costs only Python time, which this gate
    keeps bounded.
    """
    sample_size, initial_dataset, inserts = _insert_workload(scale)
    pooled_accesses = _pool_cycle(64, sample_size, initial_dataset, inserts)

    def run():
        return _replicated_cycle(
            sample_size, initial_dataset, inserts, lag_budget=0.0
        )

    replicated_accesses, link = benchmark(run)
    benchmark.extra_info["elements"] = inserts
    benchmark.extra_info["elements_per_sec"] = inserts / benchmark.stats.stats.mean
    benchmark.extra_info["batches_shipped"] = link.batches_shipped
    benchmark.extra_info["bytes_shipped"] = link.bytes_shipped
    # Capture must not charge the primary a single extra block access.
    assert replicated_accesses == pooled_accesses
    assert link.batches_shipped == link.batches_sealed > 0
    assert link.applier.applied_seq == link.batches_shipped


def test_manifest_save_throughput(benchmark):
    """Manifest saves through a replicated, pooled 3-sample catalog.

    Each save is the serve commit path end to end: the dual-slot store
    picks its target slot, writes the superblock, and the sample's group
    commit seals a batch whose digest covers the whole catalog image;
    the round then ships the outbox to the replica.  ``saves_per_sec``
    is manifest saves per second (ungated: not in the committed
    baseline).
    """
    from repro.replication.link import ReplicationLink
    from repro.serve.catalog import SampleCatalog

    link = ReplicationLink(lag_budget=0.0)
    catalog = SampleCatalog(pool_capacity=16, replication=link)
    for index in range(3):
        catalog.create(f"s{index}", sample_size=1024, seed=index)
    rounds = 20

    def run():
        for _ in range(rounds):
            catalog.checkpoint_all()
        return link.ship_all()

    benchmark(run)
    saves = rounds * len(catalog)
    benchmark.extra_info["saves"] = saves
    benchmark.extra_info["saves_per_sec"] = saves / benchmark.stats.stats.mean
    assert link.applier.applied_seq == link.batches_sealed > 0
    assert link.applier.digest() == link.history[-1].digest


# -- sample scan: the read path of every query --------------------------------
#
# A query scans the whole sample: one sequential read and one block decode
# per block.  ``elements_per_sec`` is sample rows decoded per second, per
# sample kind's codec.


@pytest.mark.parametrize("kind", ["uniform", "weighted", "window"])
def test_sample_scan_throughput(benchmark, scale, kind):
    """Full ``SampleFile.scan`` of an initialised sample, one kind's codec."""
    from repro.core.kinds import make_kind

    sample_size = min(scale.sample_size, 10_000)
    codec = make_kind(kind, sample_size).codec(32)
    rows = {
        "uniform": list(range(sample_size)),
        "weighted": [(v, 1.0 / (v + 1)) for v in range(sample_size)],
        "window": [(v, v) for v in range(sample_size)],
    }[kind]
    sample = SampleFile(SimulatedBlockDevice(CostModel(), "sample"), codec, sample_size)
    sample.initialize(rows)

    scanned = benchmark(lambda: list(sample.scan()))
    benchmark.extra_info["elements"] = sample_size
    benchmark.extra_info["elements_per_sec"] = sample_size / benchmark.stats.stats.mean
    assert scanned == rows


# -- served queries: scan -> mask -> estimate ---------------------------------
#
# One ``QuerySession`` query over a 4,096-row uniform sample behind a
# 16-frame page cache: the sample spans 32 blocks, so every scan misses.
# The query scans the value column into one array, masks it with the
# threshold and estimates.  ``queries_per_sec`` is answered queries per
# second.  Not in the committed baseline, so not gated.


@pytest.mark.parametrize("aggregate", ["count", "fraction", "sum"])
def test_query_throughput(benchmark, aggregate):
    """One served query, scan to estimate, per aggregate."""
    from repro.serve.catalog import SampleCatalog
    from repro.serve.session import Freshness, QuerySession

    sample_size = 4096
    catalog = SampleCatalog(pool_capacity=16)
    catalog.create("s", sample_size, seed=29)
    session = QuerySession(catalog)
    fresh = Freshness.serve_stale()

    answer = benchmark(lambda: session.execute("s", fresh, aggregate, 1 << 29))
    benchmark.extra_info["queries_per_sec"] = 1 / benchmark.stats.stats.mean
    assert answer.rows_scanned == sample_size
    assert answer.estimate.low <= answer.estimate.value <= answer.estimate.high


# -- replay refresh: the refresh of a kinded sample ---------------------------
#
# A weighted or window Array refresh scans the sample as one record array,
# replays the logged rows (the window: its unexpired tail) read as one
# record array, and splices the final record of each displaced slot back
# a block at a time.  ``rows_per_sec`` is logged rows per second.  Not in
# the committed baseline, so not gated.


@pytest.mark.parametrize("kind", ["weighted", "window"])
def test_replay_refresh(benchmark, kind):
    """Kinded Array refresh of a 1,024-row sample over a full log."""
    sample_size = 1024

    def setup():
        maintainer = _fresh_kind_maintainer(
            sample_size, 4 * sample_size, seed=23, kind=kind
        )
        maintainer.insert_many(range(4 * sample_size, 20 * sample_size))
        return (maintainer,), {}

    logged = []

    def run(maintainer):
        logged.append(maintainer.pending_log_elements)
        return maintainer.refresh()

    result = benchmark.pedantic(run, setup=setup, rounds=10, warmup_rounds=1)
    benchmark.extra_info["rows"] = logged[-1]
    benchmark.extra_info["rows_per_sec"] = logged[-1] / benchmark.stats.stats.mean
    assert 0 < result.displaced <= result.candidates == logged[-1]


def test_stream_generation_batch(benchmark, scale):
    """Batched stream source: producer-side cost of one refresh period."""
    _, _, count = _insert_workload(scale)

    def run():
        rng = RandomSource(seed=12)
        total = 0
        for batch in uniform_batches(rng, 0, 1 << 30, count, batch_size=8192):
            total += len(batch)
        return total

    total = benchmark(run)
    benchmark.extra_info["elements"] = count
    benchmark.extra_info["elements_per_sec"] = count / benchmark.stats.stats.mean
    assert total == count


def test_stream_generation_scalar(benchmark, scale):
    """Scalar stream source, for the producer-side comparison floor."""
    _, _, count = _insert_workload(scale)

    def run():
        rng = RandomSource(seed=12)
        total = 0
        for _ in uniform_stream(rng, 0, 1 << 30, count):
            total += 1
        return total

    total = benchmark(run)
    benchmark.extra_info["elements"] = count
    benchmark.extra_info["elements_per_sec"] = count / benchmark.stats.stats.mean
    assert total == count


def test_full_refresh_stack(benchmark):
    def run():
        harness = RefreshHarness(sample_size=5_000, candidates=4_000, seed=7)
        return harness.run(StackRefresh()).displaced

    displaced = benchmark(run)
    assert displaced > 0


def test_full_refresh_nomem(benchmark):
    def run():
        harness = RefreshHarness(sample_size=5_000, candidates=4_000, seed=8)
        return harness.run(NomemRefresh()).displaced

    displaced = benchmark(run)
    assert displaced > 0


def test_lint_project_runtime(benchmark):
    """Whole-program lint of the real tree: the analysis-engine guard.

    The engine (symbol table, call graph, effects, CFGs) rebuilds on
    every ``repro lint`` run, so its cost is developer-facing latency
    and a CI tax on every PR.  ``elements_per_sec`` is functions
    analysed per second; ``repro bench-compare`` gates it against the
    committed baseline like the batch and pool paths, so an accidental
    quadratic blow-up in call resolution fails the build instead of
    slowly rotting the edit loop.
    """
    from repro.devtools.callgraph import analyze_project
    from repro.devtools.runner import LintRunner

    project, diagnostics = LintRunner().build_project(None)
    assert diagnostics == []
    functions_analyzed = len(analyze_project(project).functions)

    findings = benchmark(lambda: LintRunner().run())
    benchmark.extra_info["functions"] = functions_analyzed
    benchmark.extra_info["elements_per_sec"] = (
        functions_analyzed / benchmark.stats.stats.mean
    )
    # The run doubles as the cleanliness check at bench time.
    assert findings == []
    assert functions_analyzed > 500


def test_serve_trace_overhead(benchmark, tmp_path):
    """Fully instrumented serve-sim: the observability layer's price tag.

    Runs the serving simulation with every observability feature on --
    span streaming to JSONL, per-block storage spans, SLO tracking and
    time-series sampling -- so the benchmark pays the worst-case
    bookkeeping cost per event.  ``elements_per_sec`` is scheduler
    events per second; ``repro bench-compare`` gates it (the default
    select matches ``trace``) so a regression in the span or SLO hot
    path fails CI rather than quietly taxing every traced run.
    """
    from repro.obs import Instrumentation
    from repro.serve.sim import SimConfig, run_simulation

    events = 200
    config = SimConfig(
        seed=7,
        samples=2,
        events=events,
        sample_size=128,
        policy="deadline:128",
        pool_capacity=32,
        slos=("latency:0.2:0.9", "shed_rate:0.05"),
        timeseries_interval=0.5,
        trace_path=str(tmp_path / "bench-trace.jsonl"),
    )

    def run():
        return run_simulation(config, instrumentation=Instrumentation())

    report = benchmark(run)
    benchmark.extra_info["elements"] = events
    benchmark.extra_info["elements_per_sec"] = events / benchmark.stats.stats.mean
    assert report.events == events
    assert report.slo["objectives"]


def test_serve_event_loop_throughput(benchmark):
    """Uninstrumented scheduler event loop: the fleet's per-shard hot path.

    The fleet router runs one DeterministicScheduler per shard with no
    instrumentation attached, so the uninstrumented event loop -- heap
    pop, backlog bisect, admission, dispatch -- is multiplied by the
    shard count in every full-engine fleet run.  The config exercises
    the defer path too (re-queues stress the sorted backlog mirror).
    ``elements_per_sec`` is scheduler events per second;
    ``repro bench-compare`` gates it (select matches ``event_loop``).
    """
    from repro.serve.sim import SimConfig, run_simulation

    events = 800
    config = SimConfig(
        seed=4,
        samples=6,
        events=events,
        max_queue_depth=6,
        overload_action="defer",
    )

    report = benchmark(lambda: run_simulation(config))
    benchmark.extra_info["elements"] = events
    benchmark.extra_info["elements_per_sec"] = events / benchmark.stats.stats.mean
    assert report.queries_answered > 0


def test_fleet_fanout_throughput(benchmark):
    """Vectorised fleet model: ops per second at fleet scale.

    Runs the model engine at 8 shards / 2k samples with ~220k simulated
    ops (base events plus fan-out sub-queries, hedging on) -- a scaled-
    down version of the CI fleet-smoke sweep.  ``elements_per_sec`` is
    simulated ops per second; ``repro bench-compare`` gates it (select
    matches ``fleet``) so a regression in the placement, quota or merge
    vector paths fails CI before it turns the smoke step into a crawl.
    """
    from repro.fleet.sim import FleetConfig, run_fleet_simulation
    from repro.serve.sim import SimConfig

    config = FleetConfig(
        serve=SimConfig(
            seed=3, samples=2_000, events=200_000, mean_gap_seconds=0.002
        ),
        shards=8,
        fanout_queries=5_000,
        hedge_multiplier=2.0,
        engine="model",
    )

    report = benchmark(lambda: run_fleet_simulation(config))
    ops = report.fleet["ops"]
    benchmark.extra_info["elements"] = ops
    benchmark.extra_info["elements_per_sec"] = ops / benchmark.stats.stats.mean
    assert report.fanout["answered"] == 5_000
