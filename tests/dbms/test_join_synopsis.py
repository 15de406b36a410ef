"""Join synopses: uniform samples of FK joins, deferredly maintained."""

import pytest
from scipy import stats

from repro.analysis.query import SampleQuery
from repro.core.policies import PeriodicPolicy
from repro.core.refresh.stack import StackRefresh
from repro.dbms.join_synopsis import JoinedRow, JoinedRowCodec, JoinSynopsis
from repro.dbms.table import Table
from repro.rng.random_source import RandomSource
from repro.storage.cost_model import CostModel

DIMS = 20


def make(fact_rows=300, sample_size=40, seed=1, policy=None):
    dimension = Table("D")
    for d in range(DIMS):
        dimension.insert(d, d * 100)  # dim value = 100 * key
    fact = Table("F")
    for k in range(fact_rows):
        fact.insert(k, k % DIMS)  # fk round-robin
    synopsis = JoinSynopsis(
        fact, dimension, sample_size=sample_size, rng=RandomSource(seed=seed),
        algorithm=StackRefresh(), cost_model=CostModel(), policy=policy,
    )
    return fact, dimension, synopsis


class TestCodec:
    def test_roundtrip(self):
        codec = JoinedRowCodec()
        row = JoinedRow(-5, 2**40, -(2**40))
        assert codec.decode(codec.encode(row)) == row

    def test_validation(self):
        with pytest.raises(ValueError):
            JoinedRowCodec(16)
        with pytest.raises(ValueError):
            JoinedRowCodec().decode(b"\x00" * 8)


class TestConstruction:
    def test_initial_synopsis_is_joined(self):
        _, _, synopsis = make()
        rows = synopsis.rows()
        assert len(rows) == 40
        for row in rows:
            assert row.fact_value == row.fact_key % DIMS
            assert row.dim_value == row.fact_value * 100

    def test_rejects_undersized_fact_table(self):
        with pytest.raises(ValueError):
            make(fact_rows=10, sample_size=40)

    def test_missing_dimension_row_rejected(self):
        dimension = Table("D")
        dimension.insert(0, 0)
        fact = Table("F")
        for k in range(10):
            fact.insert(k, 5)  # references missing dim key 5
        with pytest.raises(KeyError):
            JoinSynopsis(
                fact, dimension, sample_size=5, rng=RandomSource(seed=2),
                algorithm=StackRefresh(), cost_model=CostModel(),
            )


class TestMaintenance:
    def test_inserts_flow_into_synopsis(self):
        fact, _, synopsis = make()
        for k in range(300, 1500):
            fact.insert(k, k % DIMS)
        synopsis.refresh()
        rows = synopsis.rows()
        assert synopsis.fact_table_size == 1500
        assert len({r.fact_key for r in rows}) == 40
        for row in rows:
            assert row.dim_value == (row.fact_key % DIMS) * 100

    def test_periodic_policy(self):
        fact, _, synopsis = make(policy=PeriodicPolicy(200))
        for k in range(300, 1200):
            fact.insert(k, k % DIMS)
        assert synopsis.refreshes == 4

    def test_fact_deletion_rejected(self):
        fact, _, synopsis = make()
        with pytest.raises(RuntimeError, match="deletions"):
            fact.delete(0)

    def test_fact_update_rejected(self):
        fact, _, synopsis = make()
        with pytest.raises(RuntimeError, match="updates"):
            fact.update(0, 1)

    def test_dimension_deletion_rejected(self):
        _, dimension, synopsis = make()
        with pytest.raises(RuntimeError, match="orphan"):
            dimension.delete(0)

    def test_dimension_insert_is_noop(self):
        _, dimension, synopsis = make()
        before = synopsis.rows()
        dimension.insert(999, 42)
        synopsis.refresh()
        assert synopsis.rows() == before


class TestDimensionUpdates:
    def test_updates_patch_matching_rows_after_refresh(self):
        fact, dimension, synopsis = make()
        dimension.update(3, -1)
        dimension.update(7, -2)
        synopsis.refresh()
        for row in synopsis.rows():
            if row.fact_value == 3:
                assert row.dim_value == -1
            elif row.fact_value == 7:
                assert row.dim_value == -2
            else:
                assert row.dim_value == row.fact_value * 100

    def test_update_applies_to_freshly_sampled_rows_too(self):
        fact, dimension, synopsis = make()
        for k in range(300, 800):
            fact.insert(k, 3)  # flood dim key 3
        dimension.update(3, 12345)
        synopsis.refresh()
        flooded = [r for r in synopsis.rows() if r.fact_value == 3]
        assert flooded
        assert all(r.dim_value == 12345 for r in flooded)


class TestEstimation:
    @staticmethod
    def dim_query(synopsis):
        dim_values = [row.dim_value for row in synopsis.rows()]
        return SampleQuery(dim_values, synopsis.fact_table_size)

    def test_join_sum_estimate(self):
        fact, _, synopsis = make(fact_rows=2000, sample_size=400, seed=3)
        estimate = self.dim_query(synopsis).sum().value
        truth = sum((k % DIMS) * 100 for k in range(2000))
        assert estimate == pytest.approx(truth, rel=0.15)

    def test_join_mean_estimate(self):
        _, _, synopsis = make(fact_rows=2000, sample_size=400, seed=4)
        estimate = self.dim_query(synopsis).avg().value
        truth = sum((k % DIMS) * 100 for k in range(2000)) / 2000
        assert estimate == pytest.approx(truth, rel=0.15)


class TestUniformity:
    def test_join_sample_uniform_over_fact_rows(self):
        # Inclusion probability of each fact row (and hence each join row)
        # must be M/N after maintenance.
        m, n0, inserts, trials = 10, 20, 60, 1200
        universe = n0 + inserts
        counts = [0] * universe
        for seed in range(trials):
            dimension = Table("D")
            for d in range(DIMS):
                dimension.insert(d, d)
            fact = Table("F")
            for k in range(n0):
                fact.insert(k, k % DIMS)
            synopsis = JoinSynopsis(
                fact, dimension, sample_size=m, rng=RandomSource(seed=seed),
                algorithm=StackRefresh(), cost_model=CostModel(),
                policy=PeriodicPolicy(20),
            )
            for k in range(n0, universe):
                fact.insert(k, k % DIMS)
            synopsis.refresh()
            for row in synopsis.rows():
                counts[row.fact_key] += 1
        expected = trials * m / universe
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert stats.chi2.sf(chi2, df=universe - 1) > 1e-4
