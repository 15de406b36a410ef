"""Windowed time-series store: bucketing, summaries, determinism."""

import json
import math

import pytest

from repro.obs import TimeSeriesStore, quantile_nearest_rank
from repro.obs.timeseries import left_to_right_sum


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        TimeSeriesStore(0.0)
    with pytest.raises(ValueError):
        TimeSeriesStore(-1.0)


def test_quantile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert quantile_nearest_rank(values, 0.50) == 2.0
    assert quantile_nearest_rank(values, 0.99) == 4.0
    assert quantile_nearest_rank([7.0], 0.50) == 7.0
    with pytest.raises(ValueError):
        quantile_nearest_rank([], 0.5)


def test_dist_series_buckets_by_cost_time():
    store = TimeSeriesStore(1.0)
    store.observe("q.latency", 0.1, 0.5)
    store.observe("q.latency", 0.9, 1.5)
    store.observe("q.latency", 2.2, 9.0)
    summary = store.to_dict()
    series = summary["series"]["q.latency"]
    assert series["kind"] == "dist"
    windows = series["windows"]
    assert [w["window"] for w in windows] == [0, 2]
    first = windows[0]
    assert first["count"] == 2
    assert first["mean"] == 1.0
    assert first["min"] == 0.5
    assert first["max"] == 1.5
    assert first["p50"] == 0.5
    assert first["p99"] == 1.5
    assert windows[1]["start"] == 2.0


def test_window_mean_is_a_left_to_right_sum():
    # Sorted, these add to 0.0 left to right; a compensated sum (builtin
    # ``sum`` from Python 3.12, or ``math.fsum``) keeps the 1.0.
    values = [1e16, 1.0, -1e16]
    assert math.fsum(sorted(values)) == 1.0
    assert left_to_right_sum(sorted(values)) == 0.0
    assert left_to_right_sum([0.1] * 10) == 0.9999999999999999
    assert math.copysign(1.0, left_to_right_sum([-0.0])) == 1.0
    store = TimeSeriesStore(1.0)
    for value in values:
        store.observe("x", 0.5, value)
    assert store.to_dict()["series"]["x"]["windows"][0]["mean"] == 0.0


def test_gauge_series_tracks_last_min_max():
    store = TimeSeriesStore(10.0)
    store.set_gauge("depth", 1.0, 3.0)
    store.set_gauge("depth", 2.0, 7.0)
    store.set_gauge("depth", 3.0, 5.0)
    window = store.to_dict()["series"]["depth"]["windows"][0]
    assert window == {
        "window": 0,
        "start": 0.0,
        "last": 5.0,
        "min": 3.0,
        "max": 7.0,
    }


def test_total_series_reports_window_deltas():
    store = TimeSeriesStore(1.0)
    store.record_total("hits", 0.5, 10.0)
    store.record_total("hits", 0.9, 12.0)  # same window: last snapshot wins
    store.record_total("hits", 1.5, 30.0)
    windows = store.to_dict()["series"]["hits"]["windows"]
    assert [(w["total"], w["delta"]) for w in windows] == [(12.0, 12.0), (30.0, 18.0)]


def test_summary_is_byte_deterministic():
    def build():
        store = TimeSeriesStore(0.5)
        store.observe("b.lat", 0.7, 2.0)
        store.observe("a.lat", 0.1, 1.0)
        store.set_gauge("depth", 0.2, 4.0)
        store.record_total("hits", 0.3, 9.0)
        return json.dumps(store.to_dict(), sort_keys=True)

    assert build() == build()
    # Series listed in sorted-name order regardless of insertion order.
    names = list(json.loads(build())["series"])
    assert names == sorted(names)
