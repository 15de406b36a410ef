"""Windowed time-series sampling of serve metrics, in cost-clock time.

End-of-run aggregates hide *when* cost was paid -- the whole point of
deferred maintenance is that refresh I/O moves in time relative to the
queries that observe its staleness.  :class:`TimeSeriesStore` buckets
observations into fixed windows of cost-model seconds so a run's report
can show latency, staleness-at-read, queue depth and pool hit rate *per
window*, with deterministic nearest-rank quantiles.

Three series kinds:

* **dist** (:meth:`observe`) -- per-window distributions summarised as
  count/mean/min/max and nearest-rank p50/p90/p99;
* **gauge** (:meth:`set_gauge`) -- per-window last/min/max of a sampled
  level (queue depth);
* **total** (:meth:`record_total`) -- per-window snapshots of cumulative
  counters, summarised as the windowed delta (pool hits, device
  accesses), so rates read directly off the report.

Everything is plain arithmetic over recorded floats: no wall clocks, no
RNG, no allocation on the hot path beyond appending to lists -- and the
store is only ever consulted when explicitly enabled, preserving the
zero-overhead contract.

Method names are deliberately *not* ``counter``/``gauge``/``histogram``:
those attribute names are the OBS001 lint's emit-site markers, and a
time-series sample site is not a registry emit site.
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = ["TimeSeriesStore", "left_to_right_sum", "quantile_nearest_rank"]


def left_to_right_sum(values: Iterable[float]) -> float:
    """The IEEE loop ``t = 0.0; t += v`` over ``values``, in order.

    Builtin ``sum`` over floats is compensated from Python 3.12, so a
    summary mean built on it would depend on the interpreter; this one
    is the same double everywhere (3.11's builtin ``sum`` over floats).
    """
    total = 0.0
    for value in values:
        total += value
    return total


def quantile_nearest_rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted, non-empty list.

    Deterministic (no interpolation) so summaries are byte-stable.
    """
    if not sorted_values:
        raise ValueError("quantile of empty list")
    rank = max(1, -(-int(q * 100) * len(sorted_values) // 100))  # ceil
    return sorted_values[min(rank, len(sorted_values)) - 1]


class TimeSeriesStore:
    """Fixed-window buckets over the cost clock.

    ``interval`` is the window width in cost-model seconds; an
    observation at time ``t`` lands in window ``int(t // interval)``.
    Windows are materialised lazily (sparse runs stay sparse) and the
    summary lists them in ascending order.
    """

    def __init__(self, interval: float) -> None:
        if interval <= 0:
            raise ValueError("time-series interval must be > 0")
        self.interval = float(interval)
        # name -> window index -> list of observations
        self._dists: dict[str, dict[int, list[float]]] = {}
        # name -> window index -> [last, min, max]
        self._gauges: dict[str, dict[int, list[float]]] = {}
        # name -> window index -> last cumulative total seen in window
        self._totals: dict[str, dict[int, float]] = {}

    def _window(self, t: float) -> int:
        return int(t // self.interval)

    def observe(self, name: str, t: float, value: float) -> None:
        """Record one sample of a distribution series at cost time ``t``."""
        self._dists.setdefault(name, {}).setdefault(self._window(t), []).append(
            float(value)
        )

    def set_gauge(self, name: str, t: float, value: float) -> None:
        """Record the current level of a gauge series at cost time ``t``."""
        window = self._window(t)
        series = self._gauges.setdefault(name, {})
        cell = series.get(window)
        value = float(value)
        if cell is None:
            series[window] = [value, value, value]
        else:
            cell[0] = value
            cell[1] = min(cell[1], value)
            cell[2] = max(cell[2], value)

    def record_total(self, name: str, t: float, total: float) -> None:
        """Snapshot a cumulative counter; summaries report window deltas."""
        self._totals.setdefault(name, {})[self._window(t)] = float(total)

    def to_dict(self) -> dict[str, Any]:
        """Deterministic summary: series sorted by name, windows ascending."""
        series: dict[str, Any] = {}
        for name in sorted(self._dists):
            windows = []
            for index in sorted(self._dists[name]):
                values = sorted(self._dists[name][index])
                windows.append(
                    {
                        "window": index,
                        "start": round(index * self.interval, 9),
                        "count": len(values),
                        "mean": round(left_to_right_sum(values) / len(values), 9),
                        "min": round(values[0], 9),
                        "max": round(values[-1], 9),
                        "p50": round(quantile_nearest_rank(values, 0.50), 9),
                        "p90": round(quantile_nearest_rank(values, 0.90), 9),
                        "p99": round(quantile_nearest_rank(values, 0.99), 9),
                    }
                )
            series[name] = {"kind": "dist", "windows": windows}
        for name in sorted(self._gauges):
            windows = []
            for index in sorted(self._gauges[name]):
                last, low, high = self._gauges[name][index]
                windows.append(
                    {
                        "window": index,
                        "start": round(index * self.interval, 9),
                        "last": round(last, 9),
                        "min": round(low, 9),
                        "max": round(high, 9),
                    }
                )
            series[name] = {"kind": "gauge", "windows": windows}
        for name in sorted(self._totals):
            windows = []
            previous = 0.0
            for index in sorted(self._totals[name]):
                total = self._totals[name][index]
                windows.append(
                    {
                        "window": index,
                        "start": round(index * self.interval, 9),
                        "total": round(total, 9),
                        "delta": round(total - previous, 9),
                    }
                )
                previous = total
            series[name] = {"kind": "total", "windows": windows}
        return {"interval_seconds": round(self.interval, 9), "series": series}
