"""Deterministic discrete-event scheduler for the sample server.

The server is modelled as **one disk shared by three job classes** --
ingest batches, deferred refresh jobs and queries -- under a
discrete-event simulation whose clock is **cost-model seconds**:

* arrivals come from a seeded workload (see
  :mod:`repro.serve.workload`), timestamped in cost seconds;
* executing an operation *measures* its service time as the cost-model
  delta it actually incurred (Sec. 6.1 weighting of the counted block
  accesses) -- the simulation never guesses a duration and never reads a
  wall clock;
* the device is a single server: ``busy_until`` advances by each service
  time, and an event arriving earlier waits (its latency = wait +
  service).

Everything is deterministic: the heap orders events by ``(time, seq)``
with sequence numbers assigned once, ties included, so two runs from the
same seed produce byte-identical traces, AccessStats and estimates.

Refresh scheduling is pluggable.  After every completed event the
scheduler asks its :class:`RefreshScheduling` policy for at most **one**
sample to refresh (yielding the device back to arriving traffic between
jobs -- this is what makes policy *order* observable):

* :class:`FifoRefresh` -- refresh in the order samples crossed the
  staleness threshold;
* :class:`LongestLogFirst` -- greedy: always the most stale sample, which
  also maximises per-job refresh efficiency (the paper's Fig. 7 economy
  of scale: cost per logged element falls as the log grows);
* :class:`DeadlineRefresh` -- bounded-staleness servicing: only samples
  whose backlog exceeds the bound, most-overdue first.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence

from repro import specs
from repro.obs.api import maybe_span
from repro.obs.catalogue import COUNT_BUCKETS, SECONDS_BUCKETS
from repro.obs.slo import SLOTracker, parse_slos
from repro.obs.timeseries import TimeSeriesStore, left_to_right_sum
from repro.serve.admission import AdmissionController
from repro.serve.session import QuerySession
from repro.serve.workload import WorkloadEvent
from repro.storage.cost_model import AccessStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.api import Instrumentation
    from repro.serve.catalog import SampleCatalog

__all__ = [
    "RefreshScheduling",
    "FifoRefresh",
    "LongestLogFirst",
    "DeadlineRefresh",
    "make_scheduling_policy",
    "ServeReport",
    "DeterministicScheduler",
    "distribution",
]


# -- refresh-scheduling policies ---------------------------------------------


class RefreshScheduling(Protocol):
    """Chooses which sample (if any) to refresh when the device is free."""

    name: str

    def select(self, pending: Mapping[str, int]) -> str | None:
        """Pick one sample to refresh now, or None to stay idle.

        ``pending`` maps sample name to pending log elements, in stable
        catalog order; implementations must be deterministic functions of
        it (plus their own state).
        """
        ...

    def notify_refreshed(self, name: str) -> None:
        """Told after *any* refresh of ``name`` (scheduled or read-forced)."""
        ...


class FifoRefresh:
    """Refresh samples in the order they crossed the staleness threshold."""

    name = "fifo"

    def __init__(self, threshold: int = 1) -> None:
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        self._threshold = threshold
        self._queue: list[str] = []

    def select(self, pending: Mapping[str, int]) -> str | None:
        for name, count in pending.items():
            if count >= self._threshold and name not in self._queue:
                self._queue.append(name)
        # Read-path refreshes may have serviced queued samples already.
        while self._queue and pending.get(self._queue[0], 0) < self._threshold:
            self._queue.pop(0)
        return self._queue[0] if self._queue else None

    def notify_refreshed(self, name: str) -> None:
        if name in self._queue:
            self._queue.remove(name)


class LongestLogFirst:
    """Greedy: always refresh the sample with the largest backlog."""

    name = "longest-log"

    def __init__(self, threshold: int = 1) -> None:
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        self._threshold = threshold

    def select(self, pending: Mapping[str, int]) -> str | None:
        best: str | None = None
        best_count = 0
        for name, count in pending.items():
            if count >= self._threshold and count > best_count:
                best, best_count = name, count
        return best

    def notify_refreshed(self, name: str) -> None:
        return None


class DeadlineRefresh:
    """Keep every sample's backlog at or below a staleness bound.

    Idle while all samples are within the bound; otherwise refreshes the
    most-overdue sample (largest excess over the bound) first.  Pairs
    naturally with ``bounded_staleness`` reads at the same bound: the
    background scheduler does the work, so reads rarely have to force it.
    """

    name = "deadline"

    def __init__(self, bound: int) -> None:
        if bound < 0:
            raise ValueError("bound must be non-negative")
        self._bound = bound

    def select(self, pending: Mapping[str, int]) -> str | None:
        best: str | None = None
        best_excess = 0
        for name, count in pending.items():
            excess = count - self._bound
            if excess > best_excess:
                best, best_excess = name, excess
        return best

    def notify_refreshed(self, name: str) -> None:
        return None


_POLICIES = {
    "fifo": FifoRefresh,
    "longest-log": LongestLogFirst,
    "deadline": DeadlineRefresh,
}
#: The fields each policy's spec takes after its name.
_POLICY_FORMS = dict.fromkeys(_POLICIES, (specs.OPTIONAL, int)) | {"deadline": (int,)}


def make_scheduling_policy(spec: str) -> RefreshScheduling:
    """Build a policy from ``name`` or ``name:arg`` (e.g. ``deadline:256``).

    The argument is the staleness threshold for ``fifo``/``longest-log``
    (default 1) and the mandatory bound for ``deadline``.
    """
    return specs.parse(
        "scheduling policy", spec, _POLICY_FORMS, lambda name, *a: _POLICIES[name](*a)
    )


# -- the report ---------------------------------------------------------------


@dataclass
class ServeReport:
    """Aggregate outcome of one simulated serving run.

    Everything is in cost-model currency; :meth:`to_json` is canonical
    (sorted keys) so same-seed runs compare byte-for-byte.
    """

    policy: str
    events: int
    clock_seconds: float
    queries_answered: int = 0
    queries_shed: int = 0
    queries_deferred: int = 0
    ingest_batches: int = 0
    elements_ingested: int = 0
    refresh_jobs: int = 0
    forced_refreshes: int = 0
    latency: dict = field(default_factory=dict)
    staleness: dict = field(default_factory=dict)
    refreshes_by_sample: dict = field(default_factory=dict)
    online: dict = field(default_factory=dict)
    offline: dict = field(default_factory=dict)
    #: total device block accesses the run charged (all job classes)
    device: dict = field(default_factory=dict)
    #: page-cache effectiveness (catalog.pool_stats(); enabled=false when off)
    pool: dict = field(default_factory=dict)
    #: SLO engine output: per-objective error budgets and burn rates
    slo: dict = field(default_factory=dict)
    #: replication link + replica-apply counters (empty when unreplicated,
    #: keeping disabled-run reports byte-identical to pre-replication ones)
    replication: dict = field(default_factory=dict)
    #: windowed time-series summaries (empty unless an interval was set)
    timeseries: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)

    def to_dict(self, include_trace: bool = True) -> dict:
        out = {
            "policy": self.policy,
            "events": self.events,
            "clock_seconds": self.clock_seconds,
            "queries_answered": self.queries_answered,
            "queries_shed": self.queries_shed,
            "queries_deferred": self.queries_deferred,
            "ingest_batches": self.ingest_batches,
            "elements_ingested": self.elements_ingested,
            "refresh_jobs": self.refresh_jobs,
            "forced_refreshes": self.forced_refreshes,
            "latency": dict(self.latency),
            "staleness": dict(self.staleness),
            "refreshes_by_sample": dict(self.refreshes_by_sample),
            "online": dict(self.online),
            "offline": dict(self.offline),
            "device": dict(self.device),
            "pool": dict(self.pool),
            "slo": dict(self.slo),
        }
        if self.replication:
            out["replication"] = dict(self.replication)
        if self.timeseries:
            out["timeseries"] = dict(self.timeseries)
        if include_trace:
            out["trace"] = list(self.trace)
        return out

    def to_json(self, include_trace: bool = True, indent: int = 2) -> str:
        import json

        return json.dumps(
            self.to_dict(include_trace=include_trace), sort_keys=True, indent=indent
        )


def _stats_dict(stats: AccessStats) -> dict:
    return {
        "seq_reads": stats.seq_reads,
        "seq_writes": stats.seq_writes,
        "random_reads": stats.random_reads,
        "random_writes": stats.random_writes,
    }


def _round(value: float) -> float:
    # One canonical rounding for every float in the trace: floats this
    # deep into sums of per-access times carry noise well below 1 ns of
    # cost time, and a fixed quantum keeps reports stable to the byte.
    return round(value, 9)


def distribution(values: list[float], tail: bool = False) -> dict:
    """Nearest-rank summary of ``values``: count, mean, p50, p95 and max.

    ``tail`` adds ``p99`` (fan-out straggler analysis lives in the tail,
    and p95 of a max-of-width merge hides it).  Every float goes through
    the report's canonical rounding.
    """
    if not values:
        return {"count": 0}
    ordered = sorted(values)
    n = len(ordered)
    out = {
        "count": n,
        "mean": _round(left_to_right_sum(ordered) / n),
        "p50": _round(ordered[(50 * (n - 1)) // 100]),
        "p95": _round(ordered[(95 * (n - 1)) // 100]),
    }
    if tail:
        out["p99"] = _round(ordered[(99 * (n - 1)) // 100])
    out["max"] = _round(ordered[-1])
    return out


class _Run:
    """The state of one :meth:`DeterministicScheduler.run` call.

    The event heap and its sorted time mirror, the deferral bookkeeping,
    the device clock (``busy_until``), the per-query tallies and the
    report being filled in.
    """

    def __init__(
        self, events: Sequence[WorkloadEvent], names: list[str], policy: str
    ) -> None:
        self.heap = [(event.time, event.seq, event) for event in events]
        heapq.heapify(self.heap)
        # Sorted mirror of every heap entry's time, with `head` marking how
        # many have been popped.  Pops leave the heap in ascending (time,
        # seq) order and a deferred re-queue lands at `busy_until` (>= the
        # time just popped), so the popped prefix stays a prefix and the
        # backlog count in pop() is one bisect instead of an O(n) scan.
        self.times = sorted(entry[0] for entry in self.heap)
        self.head = 0
        # Deferred re-queues get sequence numbers above every workload seq,
        # so a deferral never jumps ahead of a same-instant arrival.
        self.next_seq = max((event.seq for event in events), default=-1) + 1
        self.deferred_once: set[int] = set()
        self.busy_until = 0.0
        self.latencies: list[float] = []
        self.stalenesses: list[float] = []
        self.report = ServeReport(policy=policy, events=len(events), clock_seconds=0.0)
        self.report.refreshes_by_sample = {name: 0 for name in names}

    def pop(self) -> tuple[float, int, WorkloadEvent, int]:
        """Pop the next event: ``(arrival, seq, event, queue depth)``.

        The depth is a backlog proxy: arrivals that will queue up before
        the device frees again (deterministic -- derived only from the
        heap).
        """
        arrival, seq, event = heapq.heappop(self.heap)
        self.head += 1
        depth = bisect_left(self.times, self.busy_until, self.head) - self.head
        return arrival, seq, event, depth

    def defer(self, event: WorkloadEvent) -> None:
        """Re-queue ``event`` at ``busy_until``, behind same-instant arrivals.

        Every already-popped time is <= ``busy_until``, so the mirror's
        insertion point never falls inside the popped prefix.
        """
        self.deferred_once.add(event.seq)
        heapq.heappush(self.heap, (self.busy_until, self.next_seq, event))
        self.next_seq += 1
        insort(self.times, self.busy_until)


# -- the scheduler ------------------------------------------------------------


class DeterministicScheduler:
    """Runs a workload against a catalog under one simulated disk.

    Parameters
    ----------
    catalog:
        The serving catalog; its shared cost model is the clock's
        currency and the source of every service time.
    policy:
        The background :class:`RefreshScheduling` policy.
    admission:
        Optional :class:`~repro.serve.admission.AdmissionController`;
        defaults to no limits (every query admitted).
    session:
        Optional :class:`~repro.serve.session.QuerySession`; defaults to
        a session over ``catalog`` at 95% confidence.
    slos:
        Optional :class:`~repro.obs.slo.SLOTracker` fed per answered/shed
        query; defaults to a tracker carrying only the always-on
        freshness contract check, so the report's ``slo`` section is
        always present.
    timeseries:
        Optional :class:`~repro.obs.timeseries.TimeSeriesStore`; when
        given, latency/staleness/queue-depth/pool/device series are
        sampled per event and summarised in the report.
    """

    def __init__(
        self,
        catalog: "SampleCatalog",
        policy: RefreshScheduling,
        admission: AdmissionController | None = None,
        session: QuerySession | None = None,
        instrumentation: "Instrumentation | None" = None,
        slos: SLOTracker | None = None,
        timeseries: TimeSeriesStore | None = None,
    ) -> None:
        self._catalog = catalog
        self._policy = policy
        self._instr = instrumentation
        self._slos = slos if slos is not None else SLOTracker(parse_slos([]))
        self._ts = timeseries
        self._admission = (
            admission
            if admission is not None
            else AdmissionController(instrumentation=instrumentation)
        )
        self._session = (
            session
            if session is not None
            else QuerySession(catalog, instrumentation=instrumentation)
        )
        if instrumentation is not None:
            self._c_queries = instrumentation.counter("serve.queries")
            self._c_refresh_jobs = instrumentation.counter("serve.refresh_jobs")
            self._c_ingest = instrumentation.counter("serve.ingest_batches")
            self._h_latency = instrumentation.histogram(
                "serve.query_latency_seconds", buckets=SECONDS_BUCKETS
            )
            self._h_staleness = instrumentation.histogram(
                "serve.query_staleness", buckets=COUNT_BUCKETS
            )

    def run(self, events: Sequence[WorkloadEvent]) -> ServeReport:
        """Process a workload to completion; returns the canonical report."""
        catalog = self._catalog
        cost_model = catalog.cost_model
        link = catalog.replication
        run = _Run(events, catalog.names(), self._policy.name)
        online_mark = catalog.online_stats()
        offline_mark = catalog.offline_stats()
        device_mark = cost_model.checkpoint()

        drain_index = 0
        while True:
            if run.heap:
                arrival, seq, event, depth = run.pop()
                with self._trace_scope(f"{event.seq:06d}", event):
                    self._process_event(run, event, seq, arrival, depth)
                if self._ts is not None:
                    self._sample_timeseries(run.busy_until, depth, device_mark)
            else:
                # Drain: keep the staleness invariant when traffic stops.
                with self._trace_scope(f"drain:{drain_index:06d}"):
                    if not self._run_one_refresh_job(run):
                        break
                drain_index += 1
            # Shipping opportunity: the async replication daemon's wakeup,
            # modelled deterministically as "after every completed step".
            if link is not None:
                link.ship_due(cost_model.cost_seconds())

        report = run.report
        if link is not None:
            # Clean shutdown drains the outbox: only a crash loses batches.
            link.ship_all()
            report.replication = link.stats()
        report.clock_seconds = _round(run.busy_until)
        report.latency = distribution(run.latencies)
        report.staleness = distribution(run.stalenesses)
        report.online = _stats_dict(catalog.online_stats() - online_mark)
        report.offline = _stats_dict(catalog.offline_stats() - offline_mark)
        report.device = _stats_dict(cost_model.since(device_mark))
        report.pool = catalog.pool_stats()
        report.slo = self._slos.to_dict()
        if self._ts is not None:
            report.timeseries = self._ts.to_dict()
        return report

    @contextmanager
    def _trace_scope(self, label: str, event: WorkloadEvent | None = None):
        """The trace context of one workload event or drain step.

        One deterministic trace id per step: every span opened on its
        behalf -- admission, session read, triggered refresh, pool and
        device I/O -- shares it.  An event also opens its ``serve.event``
        span.  A no-op when the scheduler is uninstrumented.
        """
        obs = self._instr
        if obs is None:
            yield
            return
        with ExitStack() as stack:
            stack.enter_context(obs.tracer.trace_context(self._trace_id(label)))
            if event is not None:
                stack.enter_context(
                    obs.span(
                        "serve.event",
                        kind=event.kind,
                        seq=event.seq,
                        sample=event.sample,
                    )
                )
            yield

    def _trace_id(self, label: str) -> str:
        run_id = self._instr.tracer.run_id if self._instr is not None else ""
        return f"{run_id or 'run'}:{label}"

    def _sample_timeseries(
        self, now: float, depth: int, device_mark
    ) -> None:
        """Snapshot gauge/total series at the end of one event."""
        ts = self._ts
        ts.set_gauge("serve.queue_depth", now, float(depth))
        pool = self._catalog.pool_stats()
        ts.record_total("storage.pool.hits", now, float(pool.get("hits", 0)))
        ts.record_total("storage.pool.misses", now, float(pool.get("misses", 0)))
        cost_model = self._catalog.cost_model
        ts.record_total(
            "device.accesses", now, float(cost_model.since(device_mark).total_accesses)
        )

    def _process_event(
        self,
        run: _Run,
        event: WorkloadEvent,
        seq: int,
        arrival: float,
        depth: int,
    ) -> None:
        """Run one popped event to completion, advancing ``run.busy_until``.

        Includes the post-event background refresh job (so a refresh
        *triggered* by this event's ingest or staleness lands in the same
        trace tree), except after a defer/shed, which yield the device
        immediately.
        """
        catalog = self._catalog
        cost_model = catalog.cost_model
        obs = self._instr
        report = run.report
        start = arrival if arrival > run.busy_until else run.busy_until
        wait = start - arrival

        if event.kind == "ingest":
            mark = cost_model.checkpoint()
            with maybe_span(
                obs, "serve.ingest", sample=event.sample, n=len(event.batch)
            ):
                catalog.ingest(event.sample, event.batch)
            service = cost_model.since(mark).cost_seconds(cost_model.disk)
            run.busy_until = start + service
            report.ingest_batches += 1
            report.elements_ingested += len(event.batch)
            if obs is not None:
                self._c_ingest.inc()
            report.trace.append(
                {
                    "kind": "ingest",
                    "seq": seq,
                    "sample": event.sample,
                    "arrival": _round(arrival),
                    "start": _round(start),
                    "service": _round(service),
                    "elements": len(event.batch),
                }
            )
        else:
            with maybe_span(
                obs, "serve.admit", sample=event.sample, queue_depth=depth
            ) as admit_span:
                decision = self._admission.admit(
                    wait_seconds=wait,
                    queue_depth=depth,
                    already_deferred=event.seq in run.deferred_once,
                )
                if admit_span is not None:
                    admit_span.set("action", decision.action)
            if decision.action == "defer":
                run.defer(event)
                report.queries_deferred += 1
                report.trace.append(
                    {
                        "kind": "defer",
                        "seq": seq,
                        "sample": event.sample,
                        "arrival": _round(arrival),
                        "retry_at": _round(run.busy_until),
                        "queue_depth": depth,
                    }
                )
                return
            if decision.action == "shed":
                report.queries_shed += 1
                self._slos.record_shed(arrival)
                with maybe_span(
                    obs, "serve.shed", sample=event.sample, queue_depth=depth
                ):
                    pass
                report.trace.append(
                    {
                        "kind": "shed",
                        "seq": seq,
                        "sample": event.sample,
                        "arrival": _round(arrival),
                        "wait": _round(wait),
                        "queue_depth": depth,
                    }
                )
                return
            mark = cost_model.checkpoint()
            with maybe_span(
                obs,
                "serve.query",
                sample=event.sample,
                freshness=event.freshness.label,
                aggregate=event.aggregate,
            ) as span:
                answer = self._session.execute(
                    event.sample,
                    event.freshness,
                    aggregate=event.aggregate,
                    threshold=event.threshold,
                )
                if span is not None:
                    span.set("staleness", answer.staleness)
                    span.set("refreshed", answer.refreshed)
            service = cost_model.since(mark).cost_seconds(cost_model.disk)
            run.busy_until = start + service
            latency = (start + service) - arrival
            report.queries_answered += 1
            if answer.refreshed:
                report.forced_refreshes += 1
                report.refreshes_by_sample[event.sample] += 1
                self._policy.notify_refreshed(event.sample)
            run.latencies.append(latency)
            run.stalenesses.append(float(answer.staleness))
            if event.freshness.mode == "bounded_staleness":
                bound: int | None = event.freshness.bound
            elif event.freshness.mode == "refresh_on_read":
                bound = 0
            else:
                bound = None
            self._slos.record_query(
                run.busy_until, latency, answer.staleness, bound
            )
            if self._ts is not None:
                self._ts.observe(
                    "serve.query_latency_seconds", run.busy_until, latency
                )
                self._ts.observe(
                    "serve.query_staleness", run.busy_until, float(answer.staleness)
                )
            if obs is not None:
                self._c_queries.inc()
                self._h_latency.observe(latency)
                self._h_staleness.observe(float(answer.staleness))
            report.trace.append(
                {
                    "kind": "query",
                    "seq": seq,
                    "sample": event.sample,
                    "freshness": event.freshness.label,
                    "aggregate": event.aggregate,
                    "arrival": _round(arrival),
                    "start": _round(start),
                    "service": _round(service),
                    "latency": _round(latency),
                    "staleness": answer.staleness,
                    "refreshed": answer.refreshed,
                    "estimate": _round(answer.estimate.value),
                    "ci_low": _round(answer.estimate.low),
                    "ci_high": _round(answer.estimate.high),
                }
            )

        self._run_one_refresh_job(run)

    def _run_one_refresh_job(self, run: _Run) -> bool:
        """Ask the policy for one refresh job and run it; False when idle."""
        selected = self._policy.select(self._catalog.pending())
        if selected is None:
            return False
        cost_model = self._catalog.cost_model
        obs = self._instr
        mark = cost_model.checkpoint()
        with maybe_span(obs, "serve.refresh_job", sample=selected) as span:
            result = self._catalog.refresh(selected)
            # A completed background refresh commits its manifest: this
            # bounds recovery replay, and -- when replication is attached --
            # it is the ship point that seals everything the refresh made
            # durable into one checkpoint-boundary batch.  The superblock
            # write is booked as part of the job's service time.
            self._catalog.checkpoint(selected)
            if span is not None and result is not None:
                span.set("candidates", result.candidates)
                span.set("displaced", result.displaced)
        service = cost_model.since(mark).cost_seconds(cost_model.disk)
        self._policy.notify_refreshed(selected)
        report = run.report
        report.refresh_jobs += 1
        report.refreshes_by_sample[selected] += 1
        if obs is not None:
            self._c_refresh_jobs.inc()
        report.trace.append(
            {
                "kind": "refresh",
                "sample": selected,
                "start": _round(run.busy_until),
                "service": _round(service),
                "candidates": result.candidates if result is not None else 0,
                "displaced": result.displaced if result is not None else 0,
            }
        )
        run.busy_until += service
        return True
