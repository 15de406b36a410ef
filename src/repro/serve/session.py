"""The sample server's read path: freshness modes over `SampleQuery`.

A deferred-maintenance sample is *stale by design* -- accepted candidates
sit in the log until the next refresh folds them in (the paper's whole
premise).  A server must therefore decide, per query, how much staleness
the caller tolerates:

* ``serve_stale`` -- answer from the sample as-is; zero extra I/O, the
  answer may miss up to ``pending_log_elements`` recent insertions;
* ``bounded_staleness(k)`` -- answer only when at most ``k`` accepted
  candidates are pending; otherwise force a refresh first.  This is the
  serving-layer analogue of the maintenance
  :class:`~repro.core.policies.ThresholdPolicy`, enforced at read time so
  the bound holds even when the background scheduler falls behind;
* ``refresh_on_read`` -- always fold the log in first
  (``bounded_staleness(0)``): strongest freshness, highest read latency.

Every served answer records the staleness it was computed at, so the
bounded-staleness guarantee is checkable after the fact (the property
tests do exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import specs
from repro.analysis.query import Estimate, SampleQuery
from repro.obs.api import maybe_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.api import Instrumentation
    from repro.serve.catalog import SampleCatalog

__all__ = ["Freshness", "ServedAnswer", "QuerySession"]

_MODES = ("serve_stale", "bounded_staleness", "refresh_on_read", "bounded_expiry")
#: The fields each mode's spec takes after the mode.
_FORMS = dict(zip(_MODES, [(), (int,), (), (specs.real,)]))

#: Aggregates the server accepts.  ``avg`` is deliberately absent: it
#: requires >= 2 matching sampled rows and so can fail on selective
#: predicates; the total-style estimators below are defined for any
#: predicate over a full sample.
AGGREGATES = ("count", "fraction", "sum")


@dataclass(frozen=True)
class Freshness:
    """A per-request staleness tolerance.

    Use the constructors -- :meth:`serve_stale`, :meth:`bounded`,
    :meth:`refresh_on_read` -- rather than building instances by hand.
    ``label`` is the spec :meth:`parse` reads back, built once here since
    every served query and span carries it.
    """

    mode: str
    bound: "int | float | None" = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"freshness mode must be one of {_MODES}, got {self.mode!r}")
        if self.mode == "bounded_staleness":
            if self.bound is None or self.bound < 0:
                raise ValueError("bounded_staleness needs a bound >= 0")
        elif self.mode == "bounded_expiry":
            if self.bound is None or not 0 < self.bound <= 1:
                raise ValueError("bounded_expiry needs a fraction in (0, 1]")
        elif self.bound is not None:
            raise ValueError(f"mode {self.mode!r} takes no bound")
        label = self.mode if self.bound is None else specs.label(self.mode, self.bound)
        object.__setattr__(self, "label", label)

    @classmethod
    def serve_stale(cls) -> "Freshness":
        return cls("serve_stale")

    @classmethod
    def bounded(cls, k: int) -> "Freshness":
        return cls("bounded_staleness", k)

    @classmethod
    def bounded_expiry(cls, fraction: float) -> "Freshness":
        """Tolerate at most this *fraction* of the sample being stale.

        The row-count form of bounded staleness is awkward for a
        sliding-window sample, whose effective staleness is naturally
        capped at the window size ``W``: any fixed ``k >= W`` never
        forces a refresh.  This mode bounds the stale (expired-but-
        unapplied) fraction of the sample instead -- ``0.25`` means "at
        most a quarter of the rows I scan may be out of window".  It is
        defined for every kind: the fraction is effective staleness over
        the sample capacity.
        """
        return cls("bounded_expiry", fraction)

    @classmethod
    def refresh_on_read(cls) -> "Freshness":
        return cls("refresh_on_read")

    @classmethod
    def parse(cls, spec: str) -> "Freshness":
        """Parse ``serve_stale`` / ``bounded_staleness:K`` /
        ``bounded_expiry:F`` / ``refresh_on_read``."""
        return specs.parse("freshness", spec, _FORMS, cls)

    def requires_refresh(
        self, pending_log_elements: int, capacity: int | None = None
    ) -> bool:
        """Must the sample be refreshed before answering at this staleness?

        ``pending_log_elements`` is the sample's *effective* staleness
        (already capped by the kind -- see
        :meth:`repro.core.kinds.WindowKind.effective_staleness`).
        ``capacity`` (the sample size) is required only by
        ``bounded_expiry``, which bounds the stale fraction of the
        sample rather than an absolute row count.
        """
        if self.mode == "serve_stale":
            return False
        if self.mode == "refresh_on_read":
            return pending_log_elements > 0
        if self.mode == "bounded_expiry":
            if capacity is None:
                raise ValueError("bounded_expiry needs the sample capacity")
            return pending_log_elements > self.bound * capacity
        return pending_log_elements > self.bound


@dataclass(frozen=True)
class ServedAnswer:
    """One answered query, with the staleness it was answered at."""

    sample: str
    aggregate: str
    estimate: Estimate
    dataset_size: int
    rows_scanned: int
    #: effective staleness at answer time (pending log elements, capped
    #: by the sample's kind -- e.g. at W for a window) -- 0 after a
    #: forced refresh
    staleness: int
    #: True when the freshness mode forced a refresh before answering
    refreshed: bool
    freshness: Freshness


class QuerySession:
    """Executes approximate queries against a serving catalog.

    The read path is: check the target sample's staleness against the
    request's :class:`Freshness`; refresh first if the mode demands it;
    sequentially scan the sample's value column into one array (the only
    query-time I/O, charged to the shared cost model); mask it and
    evaluate the aggregate with :class:`~repro.analysis.query.SampleQuery`.
    Predicates are ``value >= threshold`` range filters, matching the
    synthetic integer workloads.
    """

    def __init__(
        self,
        catalog: "SampleCatalog",
        confidence: float = 0.95,
        instrumentation: "Instrumentation | None" = None,
    ) -> None:
        self._catalog = catalog
        self._confidence = confidence
        self._instr = instrumentation
        if instrumentation is not None:
            self._c_forced = instrumentation.counter("serve.forced_refreshes")

    @property
    def catalog(self) -> "SampleCatalog":
        return self._catalog

    def execute(
        self,
        name: str,
        freshness: Freshness,
        aggregate: str = "count",
        threshold: int | None = None,
    ) -> ServedAnswer:
        """Answer one query at the requested freshness."""
        if aggregate not in AGGREGATES:
            raise ValueError(f"aggregate must be one of {AGGREGATES}, got {aggregate!r}")
        if self._instr is None:
            return self._execute(name, freshness, aggregate, threshold)
        with self._instr.span(
            "session.read", sample=name, freshness=freshness.label
        ) as span:
            answer = self._execute(name, freshness, aggregate, threshold)
            span.set("staleness", answer.staleness)
            span.set("refreshed", answer.refreshed)
        return answer

    def _execute(
        self,
        name: str,
        freshness: Freshness,
        aggregate: str,
        threshold: int | None,
    ) -> ServedAnswer:
        maintainer = self._catalog.get(name)
        kind = maintainer.kind
        pending = maintainer.pending_log_elements
        # Effective staleness: how many of the rows this query will scan
        # are out of date.  Uniform and weighted pass pending through
        # unchanged; a window sample caps it at W -- log rows beyond the
        # window displace each other, not additional sample rows.
        effective = kind.effective_staleness(pending)
        refreshed = False
        if freshness.requires_refresh(effective, capacity=maintainer.sample.size):
            with maybe_span(
                self._instr, "session.refresh_forced", sample=name, pending=pending
            ):
                maintainer.refresh()
            refreshed = True
            pending = maintainer.pending_log_elements
            effective = kind.effective_staleness(pending)
            if self._instr is not None:
                self._c_forced.inc()
        with maybe_span(self._instr, "session.scan", sample=name):
            values = maintainer.sample.scan_values()
        # Every kind stores the value as field 0; estimates scale to the
        # kind's represented population (window: the window itself).
        population = kind.population()
        query = SampleQuery(values, population, self._confidence)
        if threshold is not None:
            query = query.where(lambda column: column >= threshold)
        if aggregate == "count":
            estimate = query.count()
        elif aggregate == "fraction":
            estimate = query.fraction()
        else:
            estimate = query.sum()
        return ServedAnswer(
            sample=name,
            aggregate=aggregate,
            estimate=estimate,
            dataset_size=population,
            rows_scanned=len(values),
            staleness=effective,
            refreshed=refreshed,
            freshness=freshness,
        )
