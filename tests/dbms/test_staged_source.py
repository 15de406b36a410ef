"""Candidate refresh directly off the staging table."""

import math

import pytest

from repro.core.kinds import UniformKind
from repro.core.refresh.math import expected_candidates_exact
from repro.core.refresh.stack import StackRefresh
from repro.dbms.sample_view import RowRecordCodec
from repro.dbms.staged_source import StagingLogSource
from repro.dbms.staging import ChangeRecordCodec, StagingTable
from repro.dbms.table import Table
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile


def make(rows=200, inserts=600, updates=0, deletes=0, seed=1):
    cost = CostModel()
    table = Table()
    for k in range(rows):
        table.insert(k, k * 10)
    staging = StagingTable(
        table, LogFile(SimulatedBlockDevice(cost, "staging"), ChangeRecordCodec())
    )
    for k in range(rows, rows + inserts):
        table.insert(k, k * 10)
    for k in range(updates):
        table.update(k, -k)
    for k in range(updates, updates + deletes):
        table.delete(k)
    rng = RandomSource(seed=seed)
    return table, staging, rng, cost


class TestStagingLogSource:
    def test_count_matches_reservoir_expectation(self):
        m, rows, inserts, trials = 20, 200, 600, 200
        expected = expected_candidates_exact(m, rows, inserts)
        total = 0
        for seed in range(trials):
            _, staging, rng, _ = make(rows=rows, inserts=inserts, seed=seed)
            total += StagingLogSource(staging, m, rows, rng).count()
        assert abs(total / trials - expected) < 5 * math.sqrt(expected / trials)

    def test_reader_returns_inserted_rows_in_order(self):
        _, staging, rng, _ = make(updates=50)  # interleaved updates
        source = StagingLogSource(staging, 20, 200, rng)
        total = source.count()
        reader = source.open_reader()
        previous_key = -1
        for ordinal in range(1, total + 1):
            row = reader.read(ordinal)
            assert row.key >= 200  # only the window's inserts qualify
            assert row.value == row.key * 10
            assert row.key > previous_key  # log order preserved
            previous_key = row.key

    def test_reader_is_forward_only(self):
        _, staging, rng, _ = make()
        source = StagingLogSource(staging, 20, 200, rng)
        if source.count() < 2:
            pytest.skip("degenerate draw")
        reader = source.open_reader()
        reader.read(2)
        with pytest.raises(ValueError):
            reader.read(1)

    def test_rejects_windows_with_deletions(self):
        _, staging, rng, _ = make(deletes=5)
        with pytest.raises(ValueError, match="deletions"):
            StagingLogSource(staging, 20, 200, rng)

    def test_rejects_dataset_smaller_than_sample(self):
        _, staging, rng, _ = make()
        with pytest.raises(ValueError):
            StagingLogSource(staging, 500, 200, rng)

    def test_refresh_through_stack_refresh(self):
        # End to end: the sample is refreshed from the staging table alone.
        cost = CostModel()
        codec = RowRecordCodec()
        _, staging, rng, _ = make(updates=30)
        sample = SampleFile(SimulatedBlockDevice(cost, "sample"), codec, 40)
        from repro.dbms.table import Row

        sample.initialize([Row(k, k * 10) for k in range(40)])
        source = StagingLogSource(staging, 40, 200, rng)
        result = StackRefresh().refresh(sample, source, rng, UniformKind(40))
        assert result.candidates == source.count()
        rows = sample.peek_all()
        assert len({r.key for r in rows}) == 40
        displaced = [r for r in rows if r.key >= 200]
        assert len(displaced) == result.displaced

    def test_mixed_log_reads_more_blocks_than_pure_insert_log(self):
        # The Sec. 5 trade-off: interleaved change records spread the
        # candidates over more blocks.
        def run(updates):
            cost = CostModel()
            table = Table()
            for k in range(200):
                table.insert(k, k)
            staging = StagingTable(
                table,
                LogFile(SimulatedBlockDevice(cost, "staging"), ChangeRecordCodec()),
            )
            for k in range(200, 1500):
                table.insert(k, k)
                if updates and k % 2 == 0:
                    table.update(k, -k)
            rng = RandomSource(seed=5)
            source = StagingLogSource(staging, 30, 200, rng)
            sample = SampleFile(
                SimulatedBlockDevice(cost, "sample"), RowRecordCodec(), 30
            )
            from repro.dbms.table import Row

            sample.initialize([Row(k, k) for k in range(30)])
            mark = cost.checkpoint()
            StackRefresh().refresh(sample, source, rng, UniformKind(30))
            return cost.since(mark).seq_reads

        assert run(updates=True) >= run(updates=False)
