"""The spec grammar: one error form, exact arity, exact labels."""

import re

import pytest

from repro import specs
from repro.core.kinds import make_kind
from repro.fleet.quota import QuotaSpec
from repro.fleet.workload import parse_width
from repro.obs.slo import SLO, SLOTracker, parse_slos
from repro.serve.scheduler import make_scheduling_policy
from repro.serve.session import Freshness

PARSERS = {
    "sample kind": lambda spec: make_kind(spec, 8),
    "freshness": Freshness.parse,
    "scheduling policy": make_scheduling_policy,
    "SLO": SLO.parse,
    "quota": QuotaSpec.parse,
    "fan-out width": parse_width,
}


@pytest.mark.parametrize(
    ("value", "text"),
    [
        (0.05, "0.05"),
        (256.0, "256"),
        (1e6, "1e+06"),
        (1234567.0, "1234567.0"),
        (0.123456789, "0.123456789"),
        (1000000, "1000000"),
        (1234567, "1234567"),
    ],
)
def test_label_is_short_when_exact_and_exact_always(value, text):
    assert specs.label(value) == text


@pytest.mark.parametrize(
    ("what", "spec", "reason"),
    [
        ("sample kind", "weighted:abc", "invalid literal for int() with base 10: 'abc'"),
        ("sample kind", "weighted:0", "weight_mod must be positive"),
        ("sample kind", "window:8", "takes no parameter, got 1"),
        ("sample kind", "mystery", "unknown sample kind 'mystery' "
         "(known: uniform, weighted, window)"),
        ("freshness", "bounded_staleness:4:5", "takes 1 parameter, got 2"),
        ("scheduling policy", "deadline:-5", "bound must be non-negative"),
        ("scheduling policy", "fifo:1:2", "takes 0 to 1 parameter, got 2"),
        ("SLO", "latency:inf:0.99", "'inf' is not finite"),
        ("SLO", "latency:0.1", "takes 2 parameters, got 1"),
        ("quota", "t:reads:1", "takes 4 parameters, got 3"),
        ("fan-out width", "5:2", "width_range (5, 2) needs 1 <= low <= high"),
    ],
)
def test_bad_spec_names_itself(what, spec, reason):
    with pytest.raises(ValueError) as err:
        PARSERS[what](spec)
    assert str(err.value) == f"bad {what} spec {spec!r}: {reason}"


@pytest.mark.parametrize(
    ("what", "spec"),
    [
        ("sample kind", "weighted:"),
        ("sample kind", "uniform:"),
        ("freshness", "serve_stale:"),
        ("freshness", "bounded_staleness:"),
        ("scheduling policy", "fifo:"),
        ("scheduling policy", "deadline:"),
        ("SLO", "freshness:"),
        ("SLO", "latency:0.1:"),
        ("quota", "t:reads:1:"),
        ("fan-out width", "2:"),
    ],
)
def test_trailing_colon_is_an_error_everywhere(what, spec):
    with pytest.raises(ValueError, match=re.escape(f"bad {what} spec {spec!r}: ")):
        PARSERS[what](spec)


@pytest.mark.parametrize(
    ("parse", "label", "spec"),
    [
        (lambda s: make_kind(s, 8), lambda k: k.spec(), "weighted:5"),
        (lambda s: make_kind(s, 8), lambda k: k.spec(), "window"),
        (Freshness.parse, lambda f: f.label, "bounded_staleness:256"),
        (Freshness.parse, lambda f: f.label, "bounded_expiry:0.25"),
        (SLO.parse, lambda s: s.name, "latency:0.2:0.9"),
        (SLO.parse, lambda s: s.name, "staleness:256:0.95"),
        (SLO.parse, lambda s: s.name, "shed_rate:0.01"),
        (QuotaSpec.parse, lambda q: specs.label(q.tenant, q.kind, q.rate, q.burst),
         "*:reads:50:100"),
        (parse_width, lambda w: specs.label(*w), "2:8"),
    ],
)
def test_labels_in_use_read_back_unchanged(parse, label, spec):
    assert label(parse(spec)) == spec


@pytest.mark.parametrize("spec", ["staleness:1234567:0.95", "latency:0.1234571:0.99"])
def test_slo_label_round_trips_where_g_would_round(spec):
    slo = SLO.parse(spec)
    assert SLO.parse(slo.name) == slo


def test_freshness_label_round_trips_where_g_would_round():
    freshness = Freshness.parse("bounded_expiry:0.123456789")
    assert freshness.label == "bounded_expiry:0.123456789"
    assert Freshness.parse(freshness.label) == freshness


def test_close_objectives_track_separately():
    slos = parse_slos(["latency:0.1234571:0.99", "latency:0.1234569:0.99"])
    tracker = SLOTracker(slos)
    assert len(tracker.to_dict()["objectives"]) == 3  # + the freshness check
