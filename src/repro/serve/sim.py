"""One-call serving simulation: catalog + workload + scheduler.

``run_simulation(SimConfig(...))`` wires the whole serving stack
together from a single seed: it creates a catalog of samples (each with
its own decorrelated RNG stream), generates a synthetic workload, runs
it under the deterministic scheduler and returns the canonical
:class:`~repro.serve.scheduler.ServeReport`.  The ``repro serve-sim``
CLI, the scheduling-policy comparison experiment and the determinism
tests are all thin wrappers over this function -- same seed in, same
bytes out, everywhere.

The wiring is exposed piece by piece -- :func:`sample_plan`,
:func:`build_catalog`, :func:`build_workload` and
:func:`build_scheduler` -- so :mod:`repro.fleet` builds each shard with
the very same code over its placed subset of the plan.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.kinds import make_kind
from repro.obs.slo import SLOTracker, parse_slos
from repro.obs.timeseries import TimeSeriesStore
from repro.obs.tracefile import SpanSinkJsonl
from repro.rng.random_source import RandomSource
from repro.serve.admission import AdmissionController
from repro.serve.catalog import SampleCatalog, check_kind_algorithm
from repro.serve.scheduler import (
    DeterministicScheduler,
    ServeReport,
    make_scheduling_policy,
)
from repro.serve.session import QuerySession
from repro.serve.workload import WorkloadEvent, synthetic_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.api import Instrumentation

__all__ = [
    "SimConfig",
    "sample_plan",
    "build_catalog",
    "build_scheduler",
    "build_workload",
    "run_simulation",
    "query_answers",
    "assert_same_answers",
]


@dataclass(frozen=True)
class SimConfig:
    """Everything a serving simulation depends on, in one value.

    ``seed`` feeds two decorrelated streams: one per catalogued sample
    (initial dataset + maintenance decisions) and one for the workload
    (arrivals, routing, batches, query shapes).
    """

    seed: int = 0
    samples: int = 2
    sample_size: int = 256
    initial_dataset_size: int | None = None
    algorithm: str = "stack"
    events: int = 200
    mean_gap_seconds: float = 0.05
    ingest_fraction: float = 0.5
    batch_range: tuple[int, int] = (64, 512)
    staleness_bound: int = 256
    policy: str = "longest-log:64"
    max_queue_depth: int | None = None
    max_wait_seconds: float | None = None
    overload_action: str = "shed"
    confidence: float = 0.95
    #: page-cache frames per device (0 = no pool, bit-identical accounting)
    pool_capacity: int = 0
    #: write every finished span as sorted-key JSONL here (None = no trace
    #: file; also enables per-block storage spans on the instrumentation)
    trace_path: str | None = None
    #: SLO specs (repro.obs.slo.SLO.parse syntax); the always-on freshness
    #: contract check is appended regardless
    slos: tuple[str, ...] = ()
    #: window width in cost seconds for the report's time-series section
    #: (0 = no time series)
    timeseries_interval: float = 0.0
    #: attach an async replication link + replica site to the catalog
    #: (False keeps the run bit-identical to an unreplicated simulation)
    replica: bool = False
    #: replication-lag budget in cost seconds: a sealed commit batch may
    #: wait this long in the primary's outbox before it must ship
    replica_lag_budget: float = 0.0
    #: per-sample kind specs (see :mod:`repro.core.kinds`), assigned
    #: round-robin over the samples in name order; () = all uniform,
    #: which keeps the run byte-identical to a kind-less configuration.
    #: Non-uniform kinds require a kind-capable ``algorithm`` (naive/array).
    kinds: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Reject bad specs up front, before any catalog is built, so a
        # typo is a usage error rather than a failure mid-run.
        make_scheduling_policy(self.policy)
        parse_slos(self.slos)
        for spec in self.kinds:
            check_kind_algorithm(make_kind(spec, self.sample_size), self.algorithm)

    def sample_names(self) -> list[str]:
        return [f"s{index:02d}" for index in range(self.samples)]

    @property
    def run_id(self) -> str:
        """Seed-derived trace-id prefix shared by every span of the run."""
        return f"{self.seed:08x}"


def sample_plan(config: SimConfig) -> list[tuple[str, int, str]]:
    """Every sample's ``(name, seed, kind spec)``, in global spawn order.

    Seeds come from one root spawned in name order and kinds rotate over
    the global sample index, so a sample's content and scheme never
    depend on which catalog -- or fleet shard -- ends up holding it.
    """
    root = RandomSource(config.seed)
    kinds = config.kinds or ("uniform",)
    return [
        (name, root.spawn(name).seed, kinds[index % len(kinds)])
        for index, name in enumerate(config.sample_names())
    ]


def build_catalog(
    config: SimConfig,
    instrumentation: "Instrumentation | None" = None,
    plan: list[tuple[str, int, str]] | None = None,
) -> SampleCatalog:
    """Create a catalog holding ``plan`` (default: every sample of the run)."""
    cost_model = (
        instrumentation.cost_model if instrumentation is not None else None
    )
    replication = None
    if config.replica:
        from repro.replication.link import ReplicationLink

        replication = ReplicationLink(
            lag_budget=config.replica_lag_budget,
            instrumentation=instrumentation,
        )
    catalog = SampleCatalog(
        cost_model=cost_model,
        instrumentation=instrumentation,
        pool_capacity=config.pool_capacity,
        replication=replication,
    )
    for name, seed, kind in sample_plan(config) if plan is None else plan:
        catalog.create(
            name,
            sample_size=config.sample_size,
            initial_dataset_size=config.initial_dataset_size,
            algorithm=config.algorithm,
            seed=seed,
            kind=kind,
        )
    return catalog


def build_workload(config: SimConfig, names: list[str]) -> list[WorkloadEvent]:
    """The run's base workload over ``names``, from the ``workload`` stream."""
    return synthetic_workload(
        RandomSource(config.seed).spawn("workload"),
        names,
        config.events,
        mean_gap_seconds=config.mean_gap_seconds,
        ingest_fraction=config.ingest_fraction,
        batch_range=config.batch_range,
        staleness_bound=config.staleness_bound,
    )


def build_scheduler(
    config: SimConfig,
    catalog: SampleCatalog,
    instrumentation: "Instrumentation | None" = None,
) -> DeterministicScheduler:
    """The run's scheduler over ``catalog``: policy, admission, session, SLOs."""
    interval = config.timeseries_interval
    return DeterministicScheduler(
        catalog,
        policy=make_scheduling_policy(config.policy),
        admission=AdmissionController(
            max_queue_depth=config.max_queue_depth,
            max_wait_seconds=config.max_wait_seconds,
            overload_action=config.overload_action,
            instrumentation=instrumentation,
        ),
        session=QuerySession(
            catalog, confidence=config.confidence, instrumentation=instrumentation
        ),
        instrumentation=instrumentation,
        slos=SLOTracker(parse_slos(list(config.slos)), window_interval=interval),
        timeseries=TimeSeriesStore(interval) if interval > 0 else None,
    )


def run_simulation(
    config: SimConfig,
    instrumentation: "Instrumentation | None" = None,
    catalog: SampleCatalog | None = None,
) -> ServeReport:
    """Run one serving simulation to completion.

    Pass a pre-built ``catalog`` to reuse one (e.g. crash-recovery tests
    that reopen it between runs); by default a fresh catalog is built
    from the config's seed.

    ``config.trace_path`` requires ``instrumentation``: the tracer's
    ``run_id`` is set from the seed, a streaming JSONL sink is attached
    for the run, and per-block storage spans are switched on so each
    query's trace tree reaches the buffer pool and device.
    """
    if config.trace_path is not None and instrumentation is None:
        raise ValueError("trace_path requires instrumentation")
    with ExitStack() as stack:
        if instrumentation is not None:
            instrumentation.tracer.run_id = config.run_id
        if config.trace_path is not None:
            stream = stack.enter_context(
                open(config.trace_path, "w", encoding="utf-8")
            )
            unsubscribe = instrumentation.tracer.add_span_sink(SpanSinkJsonl(stream))
            stack.callback(unsubscribe)
            previous_trace_storage = instrumentation.trace_storage
            instrumentation.trace_storage = True
            stack.callback(
                setattr, instrumentation, "trace_storage", previous_trace_storage
            )
        if catalog is None:
            if instrumentation is not None:
                with instrumentation.tracer.trace_context(f"{config.run_id}:setup"):
                    catalog = build_catalog(config, instrumentation)
            else:
                catalog = build_catalog(config, instrumentation)
        events = build_workload(config, catalog.names())
        return build_scheduler(config, catalog, instrumentation).run(events)


#: Trace fields that constitute a query's *answer* -- what the client sees.
#: Timing fields (arrival/start/service/latency) are deliberately excluded:
#: a page cache changes service times, never answers.
_ANSWER_FIELDS = (
    "kind",
    "seq",
    "sample",
    "freshness",
    "aggregate",
    "staleness",
    "refreshed",
    "estimate",
    "ci_low",
    "ci_high",
)


def query_answers(report: dict) -> list[dict]:
    """Extract the answer-only view of every query in a report's trace.

    Takes a report *dict* (``ServeReport.to_dict()`` or parsed JSON) so
    the two sides of a comparison can come from files, CLI artifacts or
    live runs interchangeably.
    """
    return [
        {key: entry[key] for key in _ANSWER_FIELDS}
        for entry in report.get("trace", [])
        if entry.get("kind") == "query"
    ]


def assert_same_answers(report_a: dict, report_b: dict) -> int:
    """Assert two runs answered every query identically; returns the count.

    This is the pool-fidelity check: a run with the page cache enabled
    must return byte-identical estimates, confidence intervals, staleness
    and refresh decisions to a run without it -- only costs and the
    ``pool``/``device`` sections may differ.
    """
    answers_a = query_answers(report_a)
    answers_b = query_answers(report_b)
    if len(answers_a) != len(answers_b):
        raise AssertionError(
            f"query counts differ: {len(answers_a)} vs {len(answers_b)}"
        )
    for index, (a, b) in enumerate(zip(answers_a, answers_b)):
        if a != b:
            diffs = {k: (a[k], b[k]) for k in _ANSWER_FIELDS if a[k] != b[k]}
            raise AssertionError(f"query {index} answers differ: {diffs}")
    return len(answers_a)
