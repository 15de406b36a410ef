"""run_fleet_simulation: engine resolution, report shape, determinism.

Covers the full (router-driven) engine here; the vectorised model gets
its own module.  The 1-shard bit-identity anchor lives in
tests/properties/test_prop_fleet.py.
"""

import json
import re

import pytest

from repro.fleet.sim import (
    AUTO_FULL_MAX_EVENTS,
    FleetConfig,
    run_fleet_simulation,
)
from repro.obs.api import Instrumentation
from repro.serve.sim import SimConfig, sample_plan

CONFIG = FleetConfig(
    serve=SimConfig(seed=7, samples=6, events=150),
    shards=3,
    fanout_queries=12,
    engine="full",
)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"serve": SimConfig(samples=0)},
            {"tenants": 0},
            {"fanout_queries": -1},
            {"hedge_multiplier": -0.5},
            {"engine": "warp"},
            {"serve": SimConfig(trace_path="spans.jsonl")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FleetConfig(**kwargs)

    @pytest.mark.parametrize(
        ("kwargs", "named"),
        [
            ({"quotas": ("garbage",)}, "bad quota spec 'garbage'"),
            ({"quotas": ("t:reads:nan:4",)}, "bad quota spec 't:reads:nan:4'"),
            ({"fanout_width": (5, 2)}, "width_range (5, 2)"),
            ({"fanout_width": (0, 0)}, "width_range (0, 0)"),
        ],
    )
    def test_bad_quota_or_width_rejected_at_construction(self, kwargs, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            FleetConfig(**kwargs)

    def test_auto_resolves_full_when_small(self):
        assert FleetConfig(serve=SimConfig(events=100)).resolve_engine() == "full"

    def test_auto_resolves_model_when_large(self):
        big = FleetConfig(serve=SimConfig(events=AUTO_FULL_MAX_EVENTS + 1))
        assert big.resolve_engine() == "model"
        wide = FleetConfig(serve=SimConfig(samples=1000))
        assert wide.resolve_engine() == "model"

    def test_fanout_counts_against_the_auto_bound(self):
        config = FleetConfig(
            serve=SimConfig(events=AUTO_FULL_MAX_EVENTS), fanout_queries=1
        )
        assert config.resolve_engine() == "model"

    def test_serve_config_mirrors_the_shared_block(self):
        serve = SimConfig(seed=7, samples=6, events=150)
        assert FleetConfig(serve=serve).serve is serve
        assert FleetConfig().serve == SimConfig(samples=8)

    def test_kinds_follow_the_global_sample_index(self):
        config = FleetConfig(
            serve=SimConfig(
                samples=4, algorithm="array", kinds=("weighted", "window")
            )
        )
        assert [kind for _, _, kind in sample_plan(config.serve)] == [
            "weighted", "window", "weighted", "window",
        ]
        assert config.has_non_uniform_kinds()
        uniform = FleetConfig(serve=SimConfig(kinds=("uniform",)))
        assert not uniform.has_non_uniform_kinds()

    def test_non_uniform_kinds_reject_the_model_engine(self):
        with pytest.raises(ValueError, match="full engine"):
            FleetConfig(
                serve=SimConfig(algorithm="array", kinds=("window",)),
                engine="model",
            )
        # An explicitly uniform mix models fine.
        FleetConfig(serve=SimConfig(kinds=("uniform",)), engine="model")

    def test_non_uniform_kinds_pin_auto_to_full(self):
        big = FleetConfig(
            serve=SimConfig(
                events=AUTO_FULL_MAX_EVENTS + 1, algorithm="array", kinds=("window",)
            )
        )
        assert big.resolve_engine() == "full"

    def test_kinds_echoed_only_when_configured(self):
        plain = run_fleet_simulation(CONFIG)
        assert "kinds" not in plain.config
        kinded = run_fleet_simulation(
            FleetConfig(
                serve=SimConfig(
                    seed=CONFIG.serve.seed,
                    samples=4,
                    events=40,
                    algorithm="array",
                    kinds=("weighted", "window"),
                ),
                shards=2,
                engine="full",
            )
        )
        assert kinded.config["kinds"] == ["weighted", "window"]


class TestFullEngineReport:
    def test_same_seed_byte_identical(self):
        a = run_fleet_simulation(CONFIG).to_json()
        b = run_fleet_simulation(CONFIG).to_json()
        assert a == b

    def test_different_seed_differs(self):
        other = FleetConfig(
            serve=SimConfig(seed=8, samples=6, events=150),
            shards=3, fanout_queries=12, engine="full",
        )
        assert run_fleet_simulation(CONFIG).to_json() != run_fleet_simulation(
            other
        ).to_json()

    def test_sections_present(self):
        report = run_fleet_simulation(CONFIG).to_dict()
        assert sorted(report) == [
            "config", "engine", "fanout", "fleet", "quota", "ring", "shards",
        ]
        assert report["engine"] == "full"
        assert sorted(report["shards"]) == ["shard00", "shard01", "shard02"]

    def test_ring_section_accounts_for_every_sample(self):
        ring = run_fleet_simulation(CONFIG).to_dict()["ring"]
        assert sum(ring["histogram"].values()) == CONFIG.serve.samples
        probe = ring["rebalance_probe"]
        assert probe["moved"] + probe["stayed"] == CONFIG.serve.samples

    def test_fanout_accounting_adds_up(self):
        fanout = run_fleet_simulation(CONFIG).to_dict()["fanout"]
        assert fanout["queries"] == CONFIG.fanout_queries
        assert (
            fanout["answered"]
            + fanout["partial"]
            + fanout["unresolved"]
            + fanout["front_door_shed"]
            == CONFIG.fanout_queries
        )
        assert fanout["widths"]["count"] == fanout["dispatched"]

    def test_straggler_attribution_covers_answered_queries(self):
        report = run_fleet_simulation(CONFIG).to_dict()
        straggler = report["fanout"]["straggler"]
        assert sorted(straggler) == sorted(report["shards"])
        counted = sum(entry["count"] for entry in straggler.values())
        assert counted == report["fanout"]["answered"]

    def test_fleet_rollup_sums_the_shards(self):
        report = run_fleet_simulation(CONFIG).to_dict()
        ingest = sum(
            shard["ingest_batches"] for shard in report["shards"].values()
        )
        assert report["fleet"]["ingest_batches"] == ingest

    def test_no_trace_strips_shard_traces(self):
        report = run_fleet_simulation(CONFIG, include_trace=False)
        payload = report.to_dict(include_trace=False)
        assert all("trace" not in shard for shard in payload["shards"].values())


class TestQuotasAndHedging:
    def test_quota_gate_sheds_and_reports(self):
        config = FleetConfig(
            serve=SimConfig(seed=7, samples=6, events=300, mean_gap_seconds=0.002),
            shards=3, quotas=("*:reads:10:5",), engine="full",
        )
        report = run_fleet_simulation(config).to_dict()
        assert report["quota"]["enabled"] is True
        assert report["quota"]["total_shed"] > 0
        assert (
            report["quota"]["total_shed"] + report["quota"]["total_admitted"]
            > 0
        )

    def test_no_quotas_section_disabled(self):
        report = run_fleet_simulation(CONFIG).to_dict()
        assert report["quota"]["enabled"] is False
        assert report["quota"]["total_shed"] == 0

    def test_hedging_reports_and_never_perturbs_shards(self):
        serve = SimConfig(seed=7, samples=6, events=150)
        plain = FleetConfig(
            serve=serve, shards=3, fanout_queries=12, engine="full"
        )
        hedged = FleetConfig(
            serve=serve, shards=3, fanout_queries=12, hedge_multiplier=2.0,
            engine="full",
        )
        a = run_fleet_simulation(plain).to_dict()
        b = run_fleet_simulation(hedged).to_dict()
        assert b["fanout"]["hedge"]["enabled"] is True
        assert json.dumps(a["shards"], sort_keys=True) == json.dumps(
            b["shards"], sort_keys=True
        )
        # Hedging can only improve the merged tail, never worsen it.
        assert b["fanout"]["latency"]["max"] <= a["fanout"]["latency"]["max"]


class TestInstrumentation:
    def test_fleet_counters_and_spans_recorded(self):
        obs = Instrumentation()
        run_fleet_simulation(CONFIG, instrumentation=obs)
        counters = {
            entry["name"]: entry["value"]
            for entry in obs.snapshot()["instruments"]
            if entry["kind"] == "counter"
        }
        assert counters.get("fleet.fanout_queries") == CONFIG.fanout_queries
        assert counters.get("fleet.fanout_subqueries", 0) > 0
        names = {span.name for span in obs.tracer.finished}
        assert {"fleet.place", "fleet.shard_run", "fleet.fanout"} <= names
