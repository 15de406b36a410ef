"""SLO engine: spec parsing, error budgets, burn rates, the gate flag."""

import json
import re

import pytest

from repro.obs import SLO, SLOTracker, parse_slos


# -- parsing ----------------------------------------------------------------


def test_parse_latency_and_staleness():
    slo = SLO.parse("latency:0.05:0.99")
    assert (slo.kind, slo.threshold, slo.objective) == ("latency", 0.05, 0.99)
    assert slo.name == "latency:0.05:0.99"
    slo = SLO.parse("staleness:256:0.95")
    assert (slo.kind, slo.threshold, slo.objective) == ("staleness", 256.0, 0.95)


def test_parse_shed_rate_objective_is_complement_of_ceiling():
    slo = SLO.parse("shed_rate:0.01")
    assert slo.kind == "shed_rate"
    assert slo.objective == pytest.approx(0.99)
    assert slo.name == "shed_rate:0.01"


@pytest.mark.parametrize(
    "spec",
    ["latency:0.05", "staleness:x:0.9", "shed_rate", "freshness:1", "bogus:1:2"],
)
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        SLO.parse(spec)


@pytest.mark.parametrize(
    "spec",
    ["latency:nan:0.99", "latency:inf:0.99", "staleness:nan:0.95", "staleness:inf:0.95"],
)
def test_parse_rejects_non_finite_thresholds(spec):
    with pytest.raises(ValueError, match=re.escape(repr(spec))):
        SLO.parse(spec)


def test_parse_slos_appends_freshness_exactly_once():
    slos = parse_slos(["latency:0.1:0.9"])
    assert [s.kind for s in slos] == ["latency", "freshness"]
    slos = parse_slos(["freshness"])
    assert [s.kind for s in slos] == ["freshness"]


def test_duplicate_objectives_rejected():
    with pytest.raises(ValueError):
        SLOTracker([SLO.parse("freshness"), SLO.parse("freshness")])


# -- accounting -------------------------------------------------------------


def test_latency_budget_and_burn_rate():
    tracker = SLOTracker(parse_slos(["latency:1.0:0.9"]))
    for index in range(10):
        latency = 2.0 if index < 2 else 0.5  # 2 violations of 10
        tracker.record_query(float(index), latency, staleness=0, bound=None)
    entry = tracker.to_dict()["objectives"]["latency:1:0.9"]
    assert entry["events"] == 10
    assert entry["violations"] == 2
    assert entry["compliance"] == pytest.approx(0.8)
    assert entry["error_budget"]["total"] == pytest.approx(1.0)
    assert entry["error_budget"]["consumed"] == 2
    assert entry["burn_rate"] == pytest.approx(2.0)
    assert entry["met"] is False
    assert tracker.to_dict()["met"] is False


def test_freshness_contract_zero_budget():
    tracker = SLOTracker(parse_slos([]))
    tracker.record_query(0.0, 0.1, staleness=10, bound=64)   # within bound
    tracker.record_query(1.0, 0.1, staleness=10, bound=None)  # serve_stale
    report = tracker.to_dict()["objectives"]["freshness"]
    assert report["violations"] == 0
    assert report["burn_rate"] is None  # zero budget: burn rate undefined
    assert report["met"] is True

    tracker.record_query(2.0, 0.1, staleness=100, bound=64)  # contract broken
    report = tracker.to_dict()["objectives"]["freshness"]
    assert report["violations"] == 1
    assert report["met"] is False


def test_shed_rate_counts_sheds_against_arrivals():
    tracker = SLOTracker(parse_slos(["shed_rate:0.5"]))
    tracker.record_query(0.0, 0.1, staleness=0, bound=None)
    tracker.record_query(1.0, 0.1, staleness=0, bound=None)
    tracker.record_shed(2.0)
    entry = tracker.to_dict()["objectives"]["shed_rate:0.5"]
    assert entry["events"] == 3
    assert entry["violations"] == 1
    assert entry["met"] is True  # 1 shed <= 0.5 * 3
    tracker.record_shed(3.0)
    tracker.record_shed(4.0)
    entry = tracker.to_dict()["objectives"]["shed_rate:0.5"]
    assert entry["met"] is False  # 3 sheds > 0.5 * 5


def test_windowed_burn_rates_share_the_ts_grid():
    tracker = SLOTracker(parse_slos(["latency:1.0:0.5"]), window_interval=1.0)
    tracker.record_query(0.1, 2.0, staleness=0, bound=None)  # window 0: violation
    tracker.record_query(0.9, 0.1, staleness=0, bound=None)  # window 0: ok
    tracker.record_query(1.5, 0.1, staleness=0, bound=None)  # window 1: ok
    windows = tracker.to_dict()["objectives"]["latency:1:0.5"]["windows"]
    assert [w["window"] for w in windows] == [0, 1]
    assert windows[0]["violations"] == 1
    assert windows[0]["burn_rate"] == pytest.approx(1.0)
    assert windows[1]["violations"] == 0


def test_empty_tracker_is_met_and_deterministic():
    tracker = SLOTracker(parse_slos(["latency:0.1:0.99"]))
    report = tracker.to_dict()
    assert report["met"] is True
    for entry in report["objectives"].values():
        assert entry["events"] == 0
        assert entry["compliance"] == 1.0
    assert json.dumps(report, sort_keys=True) == json.dumps(
        tracker.to_dict(), sort_keys=True
    )
