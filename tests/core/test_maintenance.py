"""SampleMaintainer: orchestration, cost split, policies."""

import pytest

from repro.core.maintenance import SampleMaintainer
from repro.core.policies import PeriodicPolicy, ThresholdPolicy
from repro.core.refresh.naive import NaiveFullRefresh
from repro.core.refresh.stack import StackRefresh
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile
from repro.storage.records import IntRecordCodec
from tests.conftest import make_maintainer, make_sample


class TestConstruction:
    def test_rejects_unknown_strategy(self):
        rng = RandomSource(seed=1)
        cost = CostModel()
        sample, seen = make_sample(cost, 10, 20, rng)
        with pytest.raises(ValueError):
            SampleMaintainer(sample, rng, strategy="lazy", initial_dataset_size=seen)

    def test_deferred_strategies_require_log_and_algorithm(self):
        rng = RandomSource(seed=2)
        cost = CostModel()
        sample, seen = make_sample(cost, 10, 20, rng)
        with pytest.raises(ValueError):
            SampleMaintainer(
                sample, rng, strategy="candidate", initial_dataset_size=seen
            )
        log = LogFile(SimulatedBlockDevice(cost, "log"), IntRecordCodec())
        with pytest.raises(ValueError):
            SampleMaintainer(
                sample, rng, strategy="candidate", initial_dataset_size=seen, log=log
            )

    def test_rejects_dataset_smaller_than_sample(self):
        rng = RandomSource(seed=3)
        cost = CostModel()
        sample, _ = make_sample(cost, 10, 20, rng)
        with pytest.raises(ValueError):
            SampleMaintainer(sample, rng, strategy="immediate", initial_dataset_size=5)


class TestImmediateStrategy:
    def test_online_cost_only(self):
        maintainer, sample, _ = make_maintainer("immediate", None, seed=4)
        maintainer.insert_many(range(200, 400))
        assert maintainer.stats.offline.total_accesses == 0
        assert maintainer.stats.online.random_writes >= 1
        assert maintainer.stats.inserts == 200
        assert maintainer.refresh() is None

    def test_dataset_size_tracks(self):
        maintainer, _, _ = make_maintainer("immediate", None, seed=5)
        maintainer.insert_many(range(200, 250))
        assert maintainer.dataset_size == 250


class TestCandidateStrategy:
    def test_online_offline_split(self):
        maintainer, _, cost = make_maintainer("candidate", StackRefresh(), seed=6)
        init_accesses = cost.stats.total_accesses  # sample initialisation
        maintainer.insert_many(range(200, 1200))
        online_before_refresh = maintainer.stats.online.copy()
        assert maintainer.stats.offline.total_accesses == 0
        result = maintainer.refresh()
        assert result is not None
        # Refresh reads the log and writes displaced sample blocks: offline.
        assert maintainer.stats.offline.seq_reads > 0
        assert maintainer.stats.offline.seq_writes > 0
        assert maintainer.stats.offline.random_writes == 0
        # The log's tail flush is log-phase work, booked online (Sec. 6.2):
        # the online bucket grows by exactly that write during refresh.
        online_growth = (
            maintainer.stats.online.total_accesses
            - online_before_refresh.total_accesses
        )
        assert online_growth <= 1
        # All charges are accounted for: online + offline = cost model total.
        total = maintainer.stats.total
        assert cost.stats.total_accesses == init_accesses + total.total_accesses

    def test_refresh_truncates_log(self):
        maintainer, _, _ = make_maintainer("candidate", StackRefresh(), seed=7)
        maintainer.insert_many(range(200, 700))
        assert maintainer.pending_log_elements > 0
        maintainer.refresh()
        assert maintainer.pending_log_elements == 0

    def test_stats_counters(self):
        maintainer, _, _ = make_maintainer("candidate", StackRefresh(), seed=8)
        maintainer.insert_many(range(200, 700))
        maintainer.refresh()
        maintainer.insert_many(range(700, 1200))
        maintainer.refresh()
        assert maintainer.stats.inserts == 1000
        assert maintainer.stats.refreshes == 2
        assert maintainer.stats.displaced_total > 0
        assert maintainer.stats.candidates_logged > 0

    def test_acceptance_continues_across_refreshes(self):
        # |R| keeps growing; the candidate rate must keep decaying.
        maintainer, _, _ = make_maintainer(
            "candidate", StackRefresh(), seed=9,
            sample_size=20, initial_dataset=20,
        )
        first_window = 500
        maintainer.insert_many(range(20, 20 + first_window))
        first = maintainer.stats.candidates_logged
        maintainer.refresh()
        maintainer.insert_many(range(520, 520 + first_window))
        second = maintainer.stats.candidates_logged - first
        assert second < first

    def test_empty_refresh_is_cheap(self):
        maintainer, _, _ = make_maintainer("candidate", StackRefresh(), seed=10)
        result = maintainer.refresh()
        assert result.candidates == 0
        assert maintainer.stats.offline.total_accesses == 0


class TestFullStrategy:
    def test_full_log_grows_with_inserts(self):
        maintainer, _, _ = make_maintainer("full", StackRefresh(), seed=11)
        maintainer.insert_many(range(200, 400))
        assert maintainer.pending_log_elements == 200

    def test_refresh_with_adapter(self):
        maintainer, sample, _ = make_maintainer("full", StackRefresh(), seed=12)
        maintainer.insert_many(range(200, 1200))
        result = maintainer.refresh()
        assert result.candidates > 0
        values = sample.peek_all()
        assert len(set(values)) == len(values)

    def test_refresh_with_naive_full(self):
        maintainer, sample, _ = make_maintainer(
            "full", NaiveFullRefresh(), seed=13
        )
        maintainer.insert_many(range(200, 900))
        result = maintainer.refresh()
        assert result.candidates > 0
        assert len(set(sample.peek_all())) == sample.size


class TestPolicies:
    def test_periodic_policy_auto_refreshes(self):
        maintainer, _, _ = make_maintainer(
            "candidate", StackRefresh(), seed=14, policy=PeriodicPolicy(100)
        )
        maintainer.insert_many(range(200, 650))
        assert maintainer.stats.refreshes == 4

    def test_threshold_policy_refreshes_on_log_size(self):
        maintainer, _, _ = make_maintainer(
            "full", StackRefresh(), seed=15, policy=ThresholdPolicy(50)
        )
        maintainer.insert_many(range(200, 400))
        assert maintainer.stats.refreshes == 4  # full log: every 50 inserts

    def test_manual_policy_never_auto_refreshes(self):
        maintainer, _, _ = make_maintainer("candidate", StackRefresh(), seed=16)
        maintainer.insert_many(range(200, 1200))
        assert maintainer.stats.refreshes == 0


class TestDatasetSize:
    @pytest.mark.parametrize("strategy", ["immediate", "candidate", "full"])
    def test_kind_tracks_dataset_size_live_and_after_restore(self, strategy):
        # The kind's dataset size feeds estimates (``population()``), so it
        # must follow every insertion whichever strategy logs them.
        rng = RandomSource(seed=17)
        cost = CostModel()
        sample, seen = make_sample(cost, 64, 256, rng)
        log_device = SimulatedBlockDevice(cost, "log")
        algorithm = None if strategy == "immediate" else StackRefresh()
        maintainer = SampleMaintainer(
            sample, rng, strategy=strategy, initial_dataset_size=seen,
            log=LogFile(log_device, IntRecordCodec()), algorithm=algorithm,
        )
        maintainer.insert_many(range(256, 1500))
        assert maintainer.dataset_size == 1500
        assert maintainer.kind.seen == 1500
        assert maintainer.kind.population() == 1500

        restored = SampleMaintainer.from_checkpoint(
            maintainer.checkpoint_state(), sample,
            log=LogFile(log_device, IntRecordCodec()), algorithm=algorithm,
        )
        assert restored.dataset_size == 1500
        assert restored.kind.seen == 1500
        assert restored.kind.population() == 1500
