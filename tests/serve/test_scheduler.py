"""The deterministic scheduler: policies, admission, byte-identical runs."""

import re

import pytest

from repro.obs.api import Instrumentation
from repro.serve.admission import AdmissionController
from repro.serve.catalog import SampleCatalog
from repro.serve.scheduler import (
    DeadlineRefresh,
    DeterministicScheduler,
    FifoRefresh,
    LongestLogFirst,
    distribution,
    make_scheduling_policy,
)
from repro.serve.session import Freshness
from repro.serve.sim import SimConfig, build_catalog, run_simulation
from repro.serve.workload import WorkloadEvent, synthetic_workload
from repro.rng.random_source import RandomSource
from repro.storage.cost_model import CostModel


class TestPolicies:
    def test_fifo_returns_crossing_order(self):
        policy = FifoRefresh(threshold=10)
        assert policy.select({"a": 0, "b": 0}) is None
        assert policy.select({"a": 0, "b": 15}) == "b"
        # "a" crosses later; "b" stays at the head until refreshed.
        assert policy.select({"a": 20, "b": 15}) == "b"
        policy.notify_refreshed("b")
        assert policy.select({"a": 20, "b": 0}) == "a"

    def test_fifo_drops_samples_refreshed_by_the_read_path(self):
        policy = FifoRefresh(threshold=10)
        assert policy.select({"a": 15}) == "a"
        # A refresh_on_read query emptied the log in the meantime.
        assert policy.select({"a": 0}) is None

    def test_longest_log_picks_max_backlog(self):
        policy = LongestLogFirst(threshold=10)
        assert policy.select({"a": 12, "b": 30, "c": 20}) == "b"
        assert policy.select({"a": 5, "b": 5}) is None
        # Ties break toward catalog order.
        assert policy.select({"a": 20, "b": 20}) == "a"

    def test_deadline_idles_within_bound(self):
        policy = DeadlineRefresh(bound=100)
        assert policy.select({"a": 100, "b": 90}) is None
        assert policy.select({"a": 150, "b": 170}) == "b"

    def test_factory_specs(self):
        assert isinstance(make_scheduling_policy("fifo"), FifoRefresh)
        assert isinstance(make_scheduling_policy("fifo:32"), FifoRefresh)
        assert isinstance(
            make_scheduling_policy("longest-log:8"), LongestLogFirst
        )
        assert isinstance(make_scheduling_policy("deadline:64"), DeadlineRefresh)
        with pytest.raises(ValueError):
            make_scheduling_policy("deadline")  # bound is mandatory
        with pytest.raises(ValueError):
            make_scheduling_policy("round-robin")

    @pytest.mark.parametrize("spec", ["deadline:nan", "deadline:inf", "fifo:1.5"])
    def test_factory_error_names_a_non_integer_spec(self, spec):
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            make_scheduling_policy(spec)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FifoRefresh(0)
        with pytest.raises(ValueError):
            LongestLogFirst(0)
        with pytest.raises(ValueError):
            DeadlineRefresh(-1)


def run_twice(config):
    return run_simulation(config), run_simulation(config)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        config = SimConfig(seed=11, events=150, samples=3, policy="fifo:64")
        first, second = run_twice(config)
        assert first.to_json() == second.to_json()

    def test_same_seed_same_access_stats(self):
        config = SimConfig(seed=11, events=100, samples=2)
        first, second = run_twice(config)
        assert first.online == second.online
        assert first.offline == second.offline

    def test_instrumentation_does_not_change_results(self):
        """The zero-overhead contract extends to the serving layer."""
        config = SimConfig(seed=5, events=100, samples=2)
        plain = run_simulation(config)
        instrumented = run_simulation(
            config, instrumentation=Instrumentation(cost_model=CostModel())
        )
        assert plain.to_json() == instrumented.to_json()

    def test_different_seeds_differ(self):
        first = run_simulation(SimConfig(seed=1, events=100))
        second = run_simulation(SimConfig(seed=2, events=100))
        assert first.to_json() != second.to_json()

    def test_policies_change_schedules(self):
        reports = {
            policy: run_simulation(
                SimConfig(seed=9, events=200, samples=3, policy=policy)
            )
            for policy in ("fifo:32", "longest-log:32", "deadline:128")
        }
        jobs = {p: r.refresh_jobs for p, r in reports.items()}
        # A laxer staleness bound lets backlogs grow, so the deadline
        # policy schedules observably fewer (larger) refresh jobs.
        assert jobs["deadline:128"] < jobs["fifo:32"]
        assert reports["deadline:128"].trace != reports["fifo:32"].trace


class TestSchedulerMechanics:
    def test_latency_is_wait_plus_service(self):
        report = run_simulation(SimConfig(seed=3, events=120, samples=2))
        for entry in report.trace:
            if entry["kind"] != "query":
                continue
            wait = entry["start"] - entry["arrival"]
            assert wait >= 0
            assert entry["latency"] == pytest.approx(
                wait + entry["service"], abs=1e-8
            )

    def test_clock_only_moves_forward(self):
        report = run_simulation(SimConfig(seed=3, events=120, samples=2))
        starts = [e["start"] for e in report.trace if "start" in e]
        assert starts == sorted(starts)

    def test_drain_leaves_no_backlog_above_threshold(self):
        """After the run the policy has nothing left to schedule."""
        config = SimConfig(seed=7, events=150, samples=3, policy="longest-log:16")
        catalog = build_catalog(config)
        run_simulation(config, catalog=catalog)
        assert all(count < 16 for count in catalog.pending().values())

    def test_report_counts_reconcile_with_trace(self):
        report = run_simulation(
            SimConfig(seed=13, events=200, samples=2, policy="deadline:128")
        )
        kinds = {}
        for entry in report.trace:
            kinds[entry["kind"]] = kinds.get(entry["kind"], 0) + 1
        assert kinds.get("query", 0) == report.queries_answered
        assert kinds.get("ingest", 0) == report.ingest_batches
        assert kinds.get("refresh", 0) == report.refresh_jobs
        assert report.latency["count"] == report.queries_answered


class TestAdmissionControl:
    def make_burst(self, catalog, queries=20):
        """All arrivals at t=0 behind one expensive first event."""
        base = catalog.get("s00").dataset_size
        events = [
            WorkloadEvent(
                time=0.0,
                seq=0,
                kind="ingest",
                sample="s00",
                batch=tuple(range(base, base + 4000)),
            )
        ]
        for seq in range(1, queries + 1):
            events.append(
                WorkloadEvent(
                    time=0.0,
                    seq=seq,
                    kind="query",
                    sample="s00",
                    freshness=Freshness.serve_stale(),
                )
            )
        return events

    def test_no_limits_admits_everything(self):
        config = SimConfig(seed=1, samples=1)
        catalog = build_catalog(config)
        scheduler = DeterministicScheduler(catalog, FifoRefresh(1 << 30))
        report = scheduler.run(self.make_burst(catalog))
        assert report.queries_answered == 20
        assert report.queries_shed == 0

    def test_shed_under_queue_depth_limit(self):
        config = SimConfig(seed=1, samples=1)
        catalog = build_catalog(config)
        scheduler = DeterministicScheduler(
            catalog,
            FifoRefresh(1 << 30),
            admission=AdmissionController(max_queue_depth=5),
        )
        report = scheduler.run(self.make_burst(catalog))
        assert report.queries_shed > 0
        assert report.queries_answered + report.queries_shed == 20

    def test_defer_retries_once_then_sheds(self):
        config = SimConfig(seed=1, samples=1)
        catalog = build_catalog(config)
        scheduler = DeterministicScheduler(
            catalog,
            FifoRefresh(1 << 30),
            admission=AdmissionController(
                max_wait_seconds=0.0001, overload_action="defer"
            ),
        )
        report = scheduler.run(self.make_burst(catalog))
        # Every query waits behind the big ingest, so every one defers.
        assert report.queries_deferred == 20
        # On retry the device is free for exactly one query; executing it
        # re-busies the device, and an already-deferred query sheds
        # instead of deferring again.  Nothing is lost or double-counted.
        assert report.queries_answered >= 1
        assert report.queries_answered + report.queries_shed == 20

    def test_admission_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=-1)
        with pytest.raises(ValueError):
            AdmissionController(max_wait_seconds=-0.5)
        with pytest.raises(ValueError):
            AdmissionController(overload_action="drop")


class TestWorkload:
    def test_workload_is_deterministic(self):
        first = synthetic_workload(RandomSource(3), ["a", "b"], 200)
        second = synthetic_workload(RandomSource(3), ["a", "b"], 200)
        assert first == second

    def test_timestamps_increase(self):
        events = synthetic_workload(RandomSource(1), ["a"], 100)
        times = [e.time for e in events]
        assert times == sorted(times)
        assert [e.seq for e in events] == list(range(100))

    def test_event_validation(self):
        with pytest.raises(ValueError):
            WorkloadEvent(time=0.0, seq=0, kind="query", sample="a")  # no freshness
        with pytest.raises(ValueError):
            WorkloadEvent(time=0.0, seq=0, kind="ingest", sample="a")  # no batch
        with pytest.raises(ValueError):
            WorkloadEvent(time=0.0, seq=0, kind="compact", sample="a")
        with pytest.raises(ValueError):
            synthetic_workload(RandomSource(1), [], 10)


def test_distribution_mean_is_a_left_to_right_sum():
    # Sorted, the values add to 0.0 left to right; Python 3.12's
    # compensated builtin ``sum`` would keep the 1.0 and report 1/3.
    summary = distribution([1e16, 1.0, -1e16])
    assert summary["mean"] == 0.0
    assert summary["count"] == 3
