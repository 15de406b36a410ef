"""The vectorised model engine: determinism, shape, and scale headroom.

The model trades the full engine's per-event scheduler for closed-form
single-server queueing recursions over numpy arrays, so it reaches
millions of events in seconds.  It shares the ring, the quota buckets
and the report schema with the full engine; its latencies come from a
drawn service-time model rather than measured device costs, so the two
engines agree on *accounting* invariants, not on latency values.
"""

import json

import pytest

from repro.fleet.sim import FleetConfig, run_fleet_simulation
from repro.serve.sim import SimConfig

CONFIG = FleetConfig(
    serve=SimConfig(seed=11, samples=64, events=20_000),
    shards=4,
    fanout_queries=500,
    hedge_multiplier=2.0,
    engine="model",
)


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        a = run_fleet_simulation(CONFIG).to_json()
        b = run_fleet_simulation(CONFIG).to_json()
        assert a == b

    def test_seed_changes_the_report(self):
        other = FleetConfig(
            serve=SimConfig(seed=12, samples=64, events=20_000),
            shards=4, fanout_queries=500, hedge_multiplier=2.0, engine="model",
        )
        assert run_fleet_simulation(CONFIG).to_json() != run_fleet_simulation(
            other
        ).to_json()


class TestShape:
    def test_schema_matches_the_full_engine(self):
        model = run_fleet_simulation(CONFIG).to_dict()
        full = run_fleet_simulation(
            FleetConfig(
                serve=SimConfig(seed=11, samples=8, events=100),
                shards=4, fanout_queries=5, hedge_multiplier=2.0, engine="full",
            ),
            include_trace=False,
        ).to_dict(include_trace=False)
        assert sorted(model) == sorted(full)
        assert sorted(model["fanout"]) == sorted(full["fanout"])
        assert sorted(model["ring"]) == sorted(full["ring"])
        assert model["engine"] == "model"

    def test_every_shard_reported(self):
        report = run_fleet_simulation(CONFIG).to_dict()
        assert sorted(report["shards"]) == CONFIG.shard_names()
        owned = sum(
            shard["owned_samples"] for shard in report["shards"].values()
        )
        assert owned == CONFIG.serve.samples

    def test_placement_matches_the_ring_section(self):
        report = run_fleet_simulation(CONFIG).to_dict()
        for name, shard in report["shards"].items():
            assert shard["owned_samples"] == report["ring"]["histogram"][name]


class TestAccounting:
    def test_fanout_statuses_partition_the_stream(self):
        fanout = run_fleet_simulation(CONFIG).to_dict()["fanout"]
        assert (
            fanout["answered"] + fanout["partial"] + fanout["unresolved"]
            + fanout["front_door_shed"]
            == CONFIG.fanout_queries
        )

    def test_straggler_counts_cover_answered(self):
        report = run_fleet_simulation(CONFIG).to_dict()
        counted = sum(
            entry["count"]
            for entry in report["fanout"]["straggler"].values()
        )
        assert counted == report["fanout"]["answered"]

    def test_quota_sheds_reported_at_scale(self):
        config = FleetConfig(
            serve=SimConfig(
                seed=11, samples=64, events=50_000, mean_gap_seconds=0.002
            ),
            shards=4, quotas=("*:reads:50:100",), engine="model",
        )
        report = run_fleet_simulation(config).to_dict()
        assert report["quota"]["total_shed"] > 0
        base_ops = sum(
            shard["ops"] for shard in report["shards"].values()
        )
        admitted = report["quota"]["total_admitted"]
        assert base_ops == admitted  # every admitted op lands on a shard

    def test_hedge_never_worsens_the_merged_tail(self):
        plain = FleetConfig(
            serve=SimConfig(seed=11, samples=64, events=20_000),
            shards=4, fanout_queries=500, engine="model",
        )
        a = run_fleet_simulation(plain).to_dict()
        b = run_fleet_simulation(CONFIG).to_dict()
        assert json.dumps(a["shards"], sort_keys=True) == json.dumps(
            b["shards"], sort_keys=True
        )
        assert b["fanout"]["latency"]["p99"] <= a["fanout"]["latency"]["p99"]


class TestAutoRouting:
    def test_large_auto_config_lands_on_the_model(self):
        config = FleetConfig(
            serve=SimConfig(seed=1, samples=600, events=100), shards=2
        )
        report = run_fleet_simulation(config)
        assert report.engine == "model"

    @pytest.mark.parametrize("engine", ["full", "model"])
    def test_explicit_engine_echoed_in_the_config(self, engine):
        config = FleetConfig(
            serve=SimConfig(seed=1, samples=4, events=50), shards=2, engine=engine
        )
        report = run_fleet_simulation(config)
        assert report.to_dict()["config"]["engine"] == engine
