"""End-to-end scenarios across subsystems, including real files on disk."""

from scipy import stats

from repro.analysis.query import SampleQuery
from repro.core.maintenance import SampleMaintainer
from repro.core.policies import PeriodicPolicy
from repro.core.refresh.array import ArrayRefresh
from repro.core.refresh.nomem import NomemRefresh
from repro.core.refresh.stack import StackRefresh
from repro.core.reservoir import build_reservoir
from repro.dbms.sample_view import SampleView
from repro.dbms.staging import ChangeKind, ChangeRecordCodec, StagingTable
from repro.dbms.table import Table
from repro.rng.random_source import RandomSource
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.files import LogFile, SampleFile
from repro.storage.real_disk import RealBlockDevice
from repro.storage.records import IntRecordCodec
from repro.stream.operator import StreamSampleOperator
from repro.stream.source import zipf_stream


class TestRealDiskMaintenance:
    """The full maintenance loop against actual files."""

    def test_candidate_maintenance_on_real_files(self, tmp_path):
        rng = RandomSource(seed=42)
        cost = CostModel()
        codec = IntRecordCodec()
        with RealBlockDevice(tmp_path / "sample.bin", cost) as sample_dev, \
                RealBlockDevice(tmp_path / "log.bin", cost) as log_dev:
            sample = SampleFile(sample_dev, codec, 500)
            initial, seen = build_reservoir(range(2000), 500, rng)
            sample.initialize(initial)
            log = LogFile(log_dev, codec)
            maintainer = SampleMaintainer(
                sample, rng, strategy="candidate", initial_dataset_size=seen,
                log=log, algorithm=NomemRefresh(),
                policy=PeriodicPolicy(1000), cost_model=cost,
            )
            maintainer.insert_many(range(2000, 7000))
            maintainer.refresh()
            values = sample.peek_all()
            assert len(set(values)) == 500
            assert all(0 <= v < 7000 for v in values)
            # The data survived real file round-trips.
            sample_dev.sync()
            assert list(sample.scan()) == values

    def test_full_log_maintenance_on_real_files(self, tmp_path):
        rng = RandomSource(seed=43)
        cost = CostModel()
        codec = IntRecordCodec()
        with RealBlockDevice(tmp_path / "sample.bin", cost) as sample_dev, \
                RealBlockDevice(tmp_path / "log.bin", cost) as log_dev:
            sample = SampleFile(sample_dev, codec, 200)
            initial, seen = build_reservoir(range(500), 200, rng)
            sample.initialize(initial)
            maintainer = SampleMaintainer(
                sample, rng, strategy="full", initial_dataset_size=seen,
                log=LogFile(log_dev, codec), algorithm=StackRefresh(),
                cost_model=cost,
            )
            maintainer.insert_many(range(500, 3000))
            result = maintainer.refresh()
            assert result.candidates > 0
            assert len(set(sample.peek_all())) == 200


class TestStreamScenario:
    def test_skewed_stream_estimation(self):
        # Maintain a sample of a Zipf stream and use it for estimation.
        rng = RandomSource(seed=44)
        cost = CostModel()
        codec = IntRecordCodec()
        sample = SampleFile(SimulatedBlockDevice(cost, "s"), codec, 400)
        warmup = list(zipf_stream(rng, universe=1000, count=2000))
        initial, seen = build_reservoir(warmup, 400, rng)
        sample.initialize(initial)
        maintainer = SampleMaintainer(
            sample, rng, strategy="candidate", initial_dataset_size=seen,
            log=LogFile(SimulatedBlockDevice(cost, "l"), codec),
            algorithm=StackRefresh(), cost_model=cost,
        )
        operator = StreamSampleOperator(maintainer, refresh_interval=2500)
        stream = list(zipf_stream(rng, universe=1000, count=10_000))
        for value in stream:
            operator.process(value)
            if operator.refresh_due():
                operator.refresh()
        operator.refresh()
        population = warmup + stream
        query = SampleQuery(sample.peek_all(), maintainer.dataset_size)
        estimate = query.avg().value
        truth = sum(population) / len(population)
        # Sample of 400: the mean estimate lands within a few standard errors.
        sd = (sum((v - truth) ** 2 for v in population) / len(population)) ** 0.5
        assert abs(estimate - truth) < 5 * sd / 20  # sqrt(400) = 20

    def test_online_cost_far_below_immediate(self):
        # The motivating property for DSMS load: log-phase cost per tuple
        # is orders of magnitude below immediate maintenance.
        def run(strategy):
            rng = RandomSource(seed=45)
            cost = CostModel()
            codec = IntRecordCodec()
            sample = SampleFile(SimulatedBlockDevice(cost, "s"), codec, 1000)
            initial, seen = build_reservoir(range(2000), 1000, rng)
            sample.initialize(initial)
            maintainer = SampleMaintainer(
                sample, rng, strategy=strategy, initial_dataset_size=seen,
                log=LogFile(SimulatedBlockDevice(cost, "l"), codec),
                algorithm=StackRefresh(), cost_model=cost,
            )
            maintainer.insert_many(range(2000, 22_000))
            return maintainer.stats.online.cost_seconds()

        assert run("candidate") < run("immediate") / 50


class TestDbmsScenario:
    def test_staging_table_feeds_view_consistently(self):
        # Staging table and sample view observe the same change stream.
        table = Table()
        for k in range(300):
            table.insert(k, k)
        cost = CostModel()
        staging = StagingTable(
            table, LogFile(SimulatedBlockDevice(cost, "stage"), ChangeRecordCodec())
        )
        view = SampleView(
            table, sample_size=50, rng=RandomSource(seed=46),
            algorithm=ArrayRefresh(), cost_model=cost, allow_deletes=True,
        )
        for k in range(300, 500):
            table.insert(k, k)
        for k in range(0, 30):
            table.delete(k)
        for k in range(100, 110):
            table.update(k, -k)
        assert staging.pending() == (200, 10, 30)
        view.refresh()
        keys = {r.key for r in view.rows()}
        assert all(k >= 30 for k in keys)
        changes = staging.drain()
        assert sum(1 for c in changes if c.kind is ChangeKind.DELETE) == 30

    def test_view_tracks_table_through_many_windows(self):
        table = Table()
        for k in range(200):
            table.insert(k, k)
        view = SampleView(
            table, sample_size=25, rng=RandomSource(seed=47),
            algorithm=StackRefresh(), cost_model=CostModel(),
            allow_deletes=True, policy=PeriodicPolicy(100),
        )
        next_key = 200
        for window in range(10):
            for _ in range(60):
                table.insert(next_key, next_key)
                next_key += 1
            for k in range(window * 10, window * 10 + 10):
                table.delete(k)
        view.refresh()
        live_keys = {r.key for r in table.rows()}
        for row in view.rows():
            assert row.key in live_keys

    def test_estimators_on_view(self):
        table = Table()
        for k in range(1000):
            table.insert(k, k % 100)
        view = SampleView(
            table, sample_size=200, rng=RandomSource(seed=48),
            algorithm=StackRefresh(), cost_model=CostModel(),
        )
        values = [r.value for r in view.rows()]
        estimate = SampleQuery(values, dataset_size=len(table)).sum().value
        truth = sum(r.value for r in table.rows())
        assert abs(estimate - truth) / truth < 0.25
