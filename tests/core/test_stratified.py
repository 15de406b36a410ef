"""Stratified (group-by) samples."""

import pytest
from scipy import stats

from repro.analysis.query import SampleQuery
from repro.core.policies import PeriodicPolicy
from repro.core.stratified import StratifiedSampleManager
from repro.rng.random_source import RandomSource
from repro.storage.records import IntRecordCodec
from repro.stream.source import zipf_stream


def make(per_group=20, groups=5, seed=1, **kwargs):
    return StratifiedSampleManager(
        group_of=lambda v: v % groups,
        per_group_size=per_group,
        codec=IntRecordCodec(),
        rng=RandomSource(seed=seed),
        **kwargs,
    )


def group_query(manager, key):
    group = manager.group(key)
    return SampleQuery(group.contents(), group.dataset_size)


class TestRouting:
    def test_groups_created_on_demand(self):
        manager = make(groups=3)
        manager.insert_many(range(30))
        assert len(manager) == 3
        assert set(manager.keys()) == {0, 1, 2}
        assert 0 in manager and 7 not in manager

    def test_unknown_group_rejected(self):
        manager = make()
        with pytest.raises(KeyError):
            manager.group(99)

    def test_group_limit_enforced(self):
        manager = StratifiedSampleManager(
            group_of=lambda v: v,  # every element its own group
            per_group_size=5,
            codec=IntRecordCodec(),
            rng=RandomSource(seed=2),
            max_groups=10,
        )
        manager.insert_many(range(10))
        with pytest.raises(RuntimeError):
            manager.insert(10)

    def test_validation(self):
        with pytest.raises(ValueError):
            make(per_group=0)
        with pytest.raises(ValueError):
            StratifiedSampleManager(
                group_of=lambda v: v, per_group_size=5,
                codec=IntRecordCodec(), rng=RandomSource(seed=3), max_groups=0,
            )


class TestFillingPhase:
    def test_small_group_holds_everything(self):
        manager = make(per_group=50, groups=1)
        manager.insert_many(range(0, 30))
        group = manager.group(0)
        assert group.filling
        assert group.sample_size == 30
        assert sorted(group.contents()) == list(range(0, 30))

    def test_promotion_at_capacity(self):
        manager = make(per_group=10, groups=1)
        manager.insert_many(range(10))
        group = manager.group(0)
        assert not group.filling
        manager.insert_many(range(10, 200))
        manager.refresh_all()
        contents = group.contents()
        assert len(set(contents)) == 10
        assert all(0 <= v < 200 for v in contents)

    def test_dataset_sizes_exact(self):
        manager = make(groups=4)
        manager.insert_many(range(201))  # 0..200: group 0 gets one extra
        sizes = manager.group_sizes()
        assert sizes[0] == 51
        assert sizes[1] == sizes[2] == sizes[3] == 50


class TestEstimation:
    def test_group_sums_on_skewed_data(self):
        # Zipf-keyed stream: big and tiny groups; each estimate uses its
        # own group's sample, so small groups stay accurate.
        rng = RandomSource(seed=4)
        elements = list(zipf_stream(rng, universe=8, count=6000))
        manager = StratifiedSampleManager(
            group_of=lambda v: v,
            per_group_size=40,
            codec=IntRecordCodec(),
            rng=RandomSource(seed=5),
            policy_factory=lambda: PeriodicPolicy(100),
        )
        manager.insert_many(elements)
        manager.refresh_all()
        truth = {}
        for v in elements:
            truth[v] = truth.get(v, 0) + 1
        # Each sampled element counts once -> group counts estimate sizes.
        for key, true_count in truth.items():
            estimate = group_query(manager, key).count()
            assert estimate.value == pytest.approx(true_count, rel=1e-9), key

    def test_group_means(self):
        manager = make(per_group=30, groups=2, seed=6)
        manager.insert_many(range(1000))
        manager.refresh_all()
        means = {key: group_query(manager, key).avg().value for key in (0, 1)}
        # Group 0 holds evens (~mean 499), group 1 odds (~mean 500).
        assert means[0] == pytest.approx(499, abs=120)
        assert means[1] == pytest.approx(500, abs=120)

    def test_empty_group_estimates(self):
        from repro.core.stratified import GroupSample
        from repro.storage.cost_model import CostModel
        from repro.core.refresh.stack import StackRefresh

        empty = GroupSample(
            "g", 5, IntRecordCodec(), RandomSource(seed=7), CostModel(),
            StackRefresh(), None,
        )
        with pytest.raises(ValueError):
            SampleQuery(empty.contents(), empty.dataset_size)


class TestUniformityPerGroup:
    def test_each_group_sample_is_uniform(self):
        # After heavy maintenance, inclusion within each group ~ M_g/N_g.
        m, n_per_group, trials = 8, 60, 800
        counts = [0] * n_per_group  # inclusion counts for group 0's elements
        for seed in range(trials):
            manager = StratifiedSampleManager(
                group_of=lambda v: v % 2,
                per_group_size=m,
                codec=IntRecordCodec(),
                rng=RandomSource(seed=seed),
                policy_factory=lambda: PeriodicPolicy(30),
            )
            manager.insert_many(range(2 * n_per_group))
            manager.refresh_all()
            for value in manager.group(0).contents():
                counts[value // 2] += 1
        expected = trials * m / n_per_group
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert stats.chi2.sf(chi2, df=n_per_group - 1) > 1e-4
