"""TenantQuotas: token-bucket arithmetic on the cost clock."""

import re

import pytest

from repro.fleet.quota import QuotaSpec, TenantQuotas, parse_quotas


class TestSpecParsing:
    def test_round_trip(self):
        spec = QuotaSpec.parse("tenant00:reads:50:100")
        assert spec == QuotaSpec("tenant00", "reads", 50.0, 100.0)

    def test_default_tenant_star(self):
        assert QuotaSpec.parse("*:ingest:5:10").tenant == "*"

    @pytest.mark.parametrize(
        "text",
        ["", "a:b", "t:reads:50", "t:writes:50:100", "t:reads:-1:10",
         "t:reads:50:0", ":reads:50:100", "t:reads:fast:100"],
    )
    def test_bad_specs_rejected(self, text):
        with pytest.raises(ValueError, match="quota|bad quota"):
            QuotaSpec.parse(text)

    @pytest.mark.parametrize(
        "text", ["t:reads:nan:4", "t:reads:inf:4", "t:reads:1:nan", "t:reads:1:inf"]
    )
    def test_non_finite_rate_or_burst_rejected(self, text):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            QuotaSpec.parse(text)

    def test_parse_quotas_preserves_order(self):
        specs = parse_quotas(["a:reads:1:2", "b:ingest:3:4"])
        assert [spec.tenant for spec in specs] == ["a", "b"]


class TestBuckets:
    def test_no_specs_means_unlimited(self):
        quotas = TenantQuotas()
        assert not quotas.enabled
        for step in range(100):
            assert quotas.check("anyone", "reads", float(step)).action == "admit"
        assert quotas.shed_count() == 0

    def test_burst_then_shed(self):
        quotas = TenantQuotas(parse_quotas(["t:reads:0:3"]))
        actions = [quotas.check("t", "reads", 0.0).action for _ in range(5)]
        assert actions == ["admit", "admit", "admit", "shed", "shed"]

    def test_refill_on_the_cost_clock(self):
        # rate 2/s, burst 1: drained at t=0, one token back by t=0.5.
        quotas = TenantQuotas(parse_quotas(["t:reads:2:1"]))
        assert quotas.check("t", "reads", 0.0).action == "admit"
        assert quotas.check("t", "reads", 0.1).action == "shed"
        assert quotas.check("t", "reads", 0.6).action == "admit"

    def test_refill_caps_at_burst(self):
        quotas = TenantQuotas(parse_quotas(["t:reads:100:2"]))
        quotas.check("t", "reads", 1000.0)  # long idle: still only 2 tokens
        assert quotas.check("t", "reads", 1000.0).action == "admit"
        assert quotas.check("t", "reads", 1000.0).action == "shed"

    def test_kinds_are_independent(self):
        quotas = TenantQuotas(parse_quotas(["t:reads:0:1"]))
        assert quotas.check("t", "reads", 0.0).action == "admit"
        assert quotas.check("t", "reads", 0.0).action == "shed"
        # ingest has no bucket for t: unlimited.
        assert quotas.check("t", "ingest", 0.0).action == "admit"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="quota kind"):
            TenantQuotas().check("t", "writes", 0.0)


class TestDefaultTemplate:
    def test_star_materialises_private_buckets(self):
        quotas = TenantQuotas(parse_quotas(["*:reads:0:1"]))
        assert quotas.check("a", "reads", 0.0).action == "admit"
        assert quotas.check("a", "reads", 0.0).action == "shed"
        # b gets its *own* bucket from the template, not a's drained one.
        assert quotas.check("b", "reads", 0.0).action == "admit"

    def test_explicit_spec_beats_the_template(self):
        quotas = TenantQuotas(parse_quotas(["*:reads:0:1", "vip:reads:0:3"]))
        actions = [quotas.check("vip", "reads", 0.0).action for _ in range(4)]
        assert actions == ["admit", "admit", "admit", "shed"]


class TestStats:
    def test_byte_stable_shape(self):
        quotas = TenantQuotas(parse_quotas(["*:reads:0:1"]))
        quotas.check("b", "reads", 0.0)
        quotas.check("a", "reads", 0.0)
        quotas.check("a", "reads", 0.0)
        stats = quotas.stats()
        assert stats["enabled"] is True
        assert list(stats["tenants"]) == ["a", "b"]  # sorted
        assert stats["tenants"]["a"]["reads"] == {"admitted": 1, "shed": 1}
        assert stats["total_admitted"] == 2
        assert stats["total_shed"] == 1
        assert quotas.shed_count("a") == 1
        assert quotas.shed_count() == 1
