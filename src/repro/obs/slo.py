"""SLO engine: freshness contracts and targets as error budgets.

The serve layer enforces freshness contracts mechanically (a
``bounded_staleness:k`` query triggers a refresh rather than answer
over-bound), but enforcement alone hides *margin*: an operator needs to
know whether the contract was comfortably met or the system spent its
whole error budget shedding load to keep it.  This module turns declared
objectives into budgets with burn-rate accounting, entirely in
cost-model arithmetic:

* ``latency:T:O`` -- fraction of answered queries with cost-clock
  latency <= ``T`` seconds must be at least ``O``;
* ``staleness:K:O`` -- fraction of answered queries observing staleness
  <= ``K`` rows must be at least ``O``;
* ``shed_rate:C`` -- at most fraction ``C`` of query arrivals may be
  shed (an availability objective: compliance is the admission rate);
* ``freshness`` (always on) -- zero-budget contract check that no
  bounded query was ever answered over its own declared bound.  The
  serve layer makes violations impossible by construction, so this
  objective doubles as an invariant monitor: any consumption signals a
  scheduler bug, not an operational incident.

The error budget for an objective ``O`` over ``n`` events is
``(1 - O) * n`` events; burn rate is consumed/budget (``None`` when the
budget is zero, i.e. the objective tolerates nothing).  All summaries
use sorted keys and pre-rounded floats, so the report's ``slo`` section
is byte-identical across same-seed runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro import specs

__all__ = ["SLO", "SLOTracker", "parse_slos"]

_KINDS = ("latency", "staleness", "shed_rate", "freshness")
#: The fields each kind's spec takes after the kind.
_FORMS = dict(zip(_KINDS, [(specs.real,) * 2, (specs.real,) * 2, (specs.real,), ()]))


def _round(value: float, digits: int = 9) -> float:
    return round(value, digits)


@dataclass(frozen=True)
class SLO:
    """One declared objective.

    ``threshold`` is the per-event pass condition (seconds for latency,
    rows for staleness, unused for shed_rate/freshness); ``objective``
    is the required compliant fraction.  ``name`` is the spec
    :meth:`parse` reads back, and the objective's report key.
    """

    kind: str
    threshold: float = 0.0
    objective: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown SLO kind {self.kind!r} (expected one of {_KINDS})"
            )
        if not 0.0 <= self.objective <= 1.0:
            raise ValueError(f"SLO objective must be in [0, 1]: {self.objective}")
        if not 0 <= self.threshold < math.inf:
            raise ValueError(f"SLO threshold must be finite and >= 0: {self.threshold}")
        fields = (self.threshold, self.objective)[: len(_FORMS[self.kind])]
        object.__setattr__(self, "name", specs.label(self.kind, *fields))

    @classmethod
    def parse(cls, spec: str) -> "SLO":
        """Parse a CLI spec: ``latency:0.05:0.99``, ``staleness:256:0.95``,
        ``shed_rate:0.01``, or ``freshness``."""

        def build(kind: str, threshold: float = 0.0, objective: float = 1.0) -> SLO:
            return cls(kind, threshold, 1.0 - threshold if kind == "shed_rate" else objective)

        return specs.parse("SLO", spec, _FORMS, build)


def parse_slos(specs: list[str] | tuple[str, ...]) -> list[SLO]:
    """Parse CLI specs, appending the always-on freshness contract check."""
    slos = [SLO.parse(spec) for spec in specs]
    if not any(s.kind == "freshness" for s in slos):
        slos.append(SLO(kind="freshness"))
    return slos


class _Ledger:
    """Event/violation counts for one objective, optionally per window."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.events = 0
        self.violations = 0
        self._windows: dict[int, list[int]] = {}  # index -> [events, violations]

    def record(self, t: float, violated: bool) -> None:
        self.events += 1
        if violated:
            self.violations += 1
        if self.interval > 0:
            cell = self._windows.setdefault(int(t // self.interval), [0, 0])
            cell[0] += 1
            if violated:
                cell[1] += 1

    def windows_dict(self, objective: float) -> list[dict[str, Any]]:
        out = []
        for index in sorted(self._windows):
            events, violations = self._windows[index]
            budget = (1.0 - objective) * events
            out.append(
                {
                    "window": index,
                    "start": _round(index * self.interval),
                    "events": events,
                    "violations": violations,
                    "burn_rate": _round(violations / budget) if budget > 0 else None,
                }
            )
        return out


class SLOTracker:
    """Accumulates per-query outcomes against declared objectives.

    The scheduler calls :meth:`record_query` for every answered query
    and :meth:`record_shed` for every shed arrival; :meth:`to_dict`
    renders the ``slo`` report section.  ``window_interval`` > 0 adds
    per-window burn rates on the same grid as the time-series store.
    """

    def __init__(self, slos: list[SLO], window_interval: float = 0.0) -> None:
        names = [slo.name for slo in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO objectives: {names}")
        self._slos = list(slos)
        self._ledgers = {slo.name: _Ledger(window_interval) for slo in slos}

    @property
    def slos(self) -> list[SLO]:
        return list(self._slos)

    def record_query(
        self,
        t: float,
        latency_seconds: float,
        staleness: int,
        bound: int | None,
    ) -> None:
        """One answered query: ``bound`` is the bounded_staleness limit it
        declared, or None for serve_stale (freshness trivially met)."""
        for slo in self._slos:
            ledger = self._ledgers[slo.name]
            if slo.kind == "latency":
                ledger.record(t, latency_seconds > slo.threshold)
            elif slo.kind == "staleness":
                ledger.record(t, staleness > slo.threshold)
            elif slo.kind == "shed_rate":
                ledger.record(t, False)
            elif slo.kind == "freshness":
                ledger.record(t, bound is not None and staleness > bound)

    def record_shed(self, t: float) -> None:
        """One shed arrival: counts against shed_rate objectives only."""
        for slo in self._slos:
            if slo.kind == "shed_rate":
                self._ledgers[slo.name].record(t, True)

    def to_dict(self) -> dict[str, Any]:
        """The report's ``slo`` section: one entry per objective plus a
        rollup ``met`` flag for the gate."""
        objectives: dict[str, Any] = {}
        all_met = True
        for slo in self._slos:
            ledger = self._ledgers[slo.name]
            events = ledger.events
            violations = ledger.violations
            compliance = 1.0 if events == 0 else 1.0 - violations / events
            budget_total = (1.0 - slo.objective) * events
            remaining = budget_total - violations
            met = violations <= budget_total if events else True
            all_met = all_met and met
            entry: dict[str, Any] = {
                "kind": slo.kind,
                "objective": _round(slo.objective),
                "threshold": _round(slo.threshold),
                "events": events,
                "violations": violations,
                "compliance": _round(compliance),
                "error_budget": {
                    "total": _round(budget_total),
                    "consumed": violations,
                    "remaining": _round(remaining),
                },
                "burn_rate": (
                    _round(violations / budget_total) if budget_total > 0 else None
                ),
                "met": met,
            }
            if ledger.interval > 0:
                entry["windows"] = ledger.windows_dict(slo.objective)
            objectives[slo.name] = entry
        return {"met": all_met, "objectives": objectives}
