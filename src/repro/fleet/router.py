"""The fleet router: placement, quota gating, fan-out, straggler merge.

:class:`FleetRouter` is the **full-fidelity** fleet engine: every shard
is a ``serve-sim`` over its placed subset of the samples, built by
serve's own :func:`~repro.serve.sim.sample_plan`,
:func:`~repro.serve.sim.build_catalog` and
:func:`~repro.serve.sim.build_scheduler` (each shard with its own cost
model -- shards are independent devices whose clocks all start at the
same global t=0).  The router places every sample with the seeded
hash ring, gates arrivals through per-tenant quotas, decomposes fan-out
queries into per-shard sub-queries, and merges sub-answers on the global
cost clock with slowest-shard (straggler) attribution and optional
hedged-re-read accounting.

Two properties anchor the design (both property-tested):

* **a 1-shard fleet is invisible** -- with fan-out and quotas off, shard
  ``shard00`` receives serve's base workload and a catalog of the whole
  sample plan, so its per-shard report is bit-identical to a plain
  ``serve-sim`` run of ``config.serve``;
* **placement stability** -- adding a shard moves only ~K/N of K placed
  samples, every one of them onto the new shard.

Sub-query bookkeeping: every fan-out sub-query carries a globally unique
sequence number above every base and fan-out seq, so no shard heap ever
compares two event payloads, and the merge finds each sub-answer in its
shard's trace by that seq.  A sub-query deferred by shard-level
admission control is re-queued under a fresh seq the router cannot
predict; such fan-outs are counted ``unresolved`` rather than guessed
at (their sub-answer still appears in the shard trace).

Hedge accounting is **analytic**: with ``hedge_multiplier`` m > 0, a
sub-query whose latency exceeds m x the query's median sub-latency
counts as hedged, and its effective latency is capped at the hedge
deadline plus the query's median service time -- the completion a
re-read issued at the deadline would plausibly achieve.  It models the
tail-cutting of hedged requests without perturbing any shard schedule,
so hedging on/off never changes a shard report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.api import maybe_span
from repro.rng.random_source import RandomSource
from repro.serve.catalog import SampleCatalog
from repro.serve.scheduler import distribution
from repro.serve.sim import (
    build_catalog,
    build_scheduler,
    build_workload,
    sample_plan,
)
from repro.serve.workload import WorkloadEvent
from repro.fleet.quota import TenantQuotas, parse_quotas
from repro.fleet.ring import HashRing, rebalance_plan
from repro.fleet.workload import fanout_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.sim import FleetConfig
    from repro.obs.api import Instrumentation

__all__ = ["FleetRouter", "ring_section"]


def _round(value: float) -> float:
    # Same canonical quantum as the serve trace: 1 ns of cost time.
    return round(value, 9)


def ring_section(ring: HashRing, sample_names: list[str]) -> dict:
    """The report's ``ring`` section: histogram, balance, rebalance probe.

    The probe adds a hypothetical next shard and records how many of the
    placed samples would move -- the ~K/N disruption bound, surfaced in
    every report so drift in the ring is immediately visible.
    """
    histogram = ring.histogram(sample_names)
    counts = sorted(histogram.values())
    n = len(counts)
    probe_name = f"shard{len(ring):02d}"
    plan = rebalance_plan(ring, ring.spawn(add=probe_name), sample_names)
    return {
        "shards": len(ring),
        "vnodes": ring.vnodes,
        "histogram": histogram,
        "balance": {
            "min": counts[0] if counts else 0,
            "max": counts[-1] if counts else 0,
            "mean": _round(sum(counts) / n) if n else 0.0,
        },
        "rebalance_probe": {
            "added": probe_name,
            "moved": plan.moved,
            "stayed": plan.stayed,
        },
    }


class FleetRouter:
    """Runs one full-fidelity fleet simulation from a :class:`FleetConfig`.

    Shard-internal components run uninstrumented (each shard would need
    its own registry and clock to share one facade); the router's own
    ``fleet.*`` metrics and spans cover the new surface.  The returned
    value is the report's section dict -- :mod:`repro.fleet.sim` wraps it
    in a :class:`~repro.fleet.sim.FleetReport`.
    """

    def __init__(
        self,
        config: "FleetConfig",
        instrumentation: "Instrumentation | None" = None,
    ) -> None:
        self._config = config
        self._instr = instrumentation
        if instrumentation is not None:
            self._c_fanout = instrumentation.counter("fleet.fanout_queries")
            self._c_subs = instrumentation.counter("fleet.fanout_subqueries")
            self._c_hedge_issued = instrumentation.counter("fleet.hedges_issued")
            self._c_hedge_won = instrumentation.counter("fleet.hedges_won")
            self._h_straggler = instrumentation.histogram(
                "fleet.straggler_latency_seconds"
            )
            self._g_shards = instrumentation.gauge("fleet.shards")

    # -- the run -----------------------------------------------------------

    def run(self, include_trace: bool = True) -> dict:
        config = self._config
        serve = config.serve
        obs = self._instr
        shard_names = config.shard_names()
        sample_names = serve.sample_names()
        tenant_names = config.tenant_names()
        if obs is not None:
            self._g_shards.set(len(shard_names))

        with maybe_span(
            obs, "fleet.place", shards=len(shard_names), samples=len(sample_names)
        ):
            ring = HashRing(
                seed=serve.seed, vnodes=config.vnodes, shards=shard_names
            )
            placement = ring.placement(sample_names)

        # Each shard holds its placed share of serve's global plan, so a
        # sample's seed and kind never depend on where it landed.
        owned: dict[str, list[tuple[str, int, str]]] = {
            name: [] for name in shard_names
        }
        for name, seed, kind in sample_plan(serve):
            owned[placement[name]].append((name, seed, kind))
        catalogs = {
            shard: build_catalog(serve, plan=owned[shard]) for shard in shard_names
        }

        # Tenancy is a deterministic function of the sample index, so the
        # same tenant owns a sample in every engine and every layout.
        tenant_of = {
            name: tenant_names[index % len(tenant_names)]
            for index, name in enumerate(sample_names)
        }
        quotas = TenantQuotas(parse_quotas(config.quotas), instrumentation=obs)

        # Base workload: serve-sim's, over the global name list.  Fan-out
        # draws from its own child so enabling it never perturbs the base.
        base_events = build_workload(serve, sample_names)
        fanouts = []
        if config.fanout_queries > 0:
            fanouts = fanout_workload(
                RandomSource(serve.seed).spawn("fanout"),
                sample_names,
                tenant_names,
                config.fanout_queries,
                mean_gap_seconds=config.fanout_mean_gap_seconds,
                width_range=config.fanout_width,
                staleness_bound=serve.staleness_bound,
                seq_base=serve.events,
            )

        # -- front door: quota gate + routing, in global arrival order ----
        shard_events: dict[str, list[WorkloadEvent]] = {
            shard: [] for shard in shard_names
        }
        # (fanout, [(shard, seq), ...]) for every dispatched fan-out; the
        # sub seqs start above every base and fan-out seq so no shard
        # heap ever holds a (time, seq) tie.
        dispatched: list[tuple] = []
        fanout_front_shed = 0
        next_sub_seq = serve.events + config.fanout_queries
        gate = quotas.enabled

        arrivals: list[tuple[float, int, object]] = [
            (event.time, event.seq, event) for event in base_events
        ]
        arrivals.extend((query.time, query.seq, query) for query in fanouts)
        arrivals.sort(key=lambda item: (item[0], item[1]))

        for _, _, item in arrivals:
            if isinstance(item, WorkloadEvent):
                if gate:
                    kind = "ingest" if item.kind == "ingest" else "reads"
                    decision = quotas.check(tenant_of[item.sample], kind, item.time)
                    if not decision.admitted:
                        continue  # shed at the front door: no shard sees it
                shard_events[placement[item.sample]].append(item)
            else:
                if obs is not None:
                    self._c_fanout.inc()
                if gate:
                    decision = quotas.check(item.tenant, "reads", item.time)
                    if not decision.admitted:
                        fanout_front_shed += 1
                        continue
                subs: list[tuple[str, int]] = []
                for sample in item.samples:
                    sub = WorkloadEvent(
                        time=item.time,
                        seq=next_sub_seq,
                        kind="query",
                        sample=sample,
                        freshness=item.freshness,
                        aggregate=item.aggregate,
                        threshold=item.threshold,
                    )
                    next_sub_seq += 1
                    shard = placement[sample]
                    shard_events[shard].append(sub)
                    subs.append((shard, sub.seq))
                    if obs is not None:
                        self._c_subs.inc()
                dispatched.append((item, subs))

        # -- per-shard runs (independent devices, shared t=0) --------------
        shard_reports: dict[str, dict] = {}
        for shard in shard_names:
            scheduler = build_scheduler(serve, catalogs[shard])
            with maybe_span(
                obs, "fleet.shard_run", shard=shard, events=len(shard_events[shard])
            ):
                report = scheduler.run(shard_events[shard])
            shard_reports[shard] = report.to_dict(include_trace=include_trace)
            if not include_trace:
                # The merge below still needs the trace; keep it aside.
                shard_reports[shard]["_trace"] = report.trace

        fanout = self._merge_fanouts(
            dispatched, shard_reports, fanout_front_shed, len(fanouts)
        )
        for shard in shard_names:
            shard_reports[shard].pop("_trace", None)

        fleet = self._rollup(shard_reports, catalogs)
        return {
            "engine": "full",
            "ring": ring_section(ring, sample_names),
            "quota": quotas.stats(),
            "fanout": fanout,
            "fleet": fleet,
            "shards": shard_reports,
        }

    # -- fan-out merge -----------------------------------------------------

    def _merge_fanouts(
        self,
        dispatched: list[tuple],
        shard_reports: dict[str, dict],
        front_shed: int,
        total: int,
    ) -> dict:
        config = self._config
        obs = self._instr
        by_seq: dict[str, dict[int, dict]] = {}
        for shard, report in shard_reports.items():
            trace = report.get("trace")
            if trace is None:
                trace = report.get("_trace", [])
            by_seq[shard] = {
                entry["seq"]: entry for entry in trace if "seq" in entry
            }

        latencies: list[float] = []
        widths: list[float] = []
        straggler: dict[str, dict] = {
            shard: {"count": 0, "seconds": 0.0} for shard in shard_reports
        }
        answered = partial = unresolved = 0
        hedges_issued = hedges_won = 0
        hedge_saved = 0.0
        multiplier = config.hedge_multiplier

        for query, subs in dispatched:
            with maybe_span(
                obs,
                "fleet.fanout",
                seq=query.seq,
                tenant=query.tenant,
                width=query.width,
                aggregate=query.aggregate,
            ) as span:
                completions: list[tuple[float, float, str]] = []
                shed = deferred = 0
                for shard, seq in subs:
                    entry = by_seq[shard].get(seq)
                    if entry is None or entry["kind"] == "defer":
                        deferred += 1
                    elif entry["kind"] == "shed":
                        shed += 1
                    else:
                        completions.append(
                            (
                                entry["start"] + entry["service"],
                                entry["service"],
                                shard,
                            )
                        )
                if deferred:
                    unresolved += 1
                    status = "unresolved"
                elif shed:
                    partial += 1
                    status = "partial"
                else:
                    answered += 1
                    status = "answered"
                if span is not None:
                    span.set("status", status)
                if status != "answered":
                    continue

                widths.append(float(len(subs)))
                arrival = query.time
                sub_latencies = [done - arrival for done, _, _ in completions]
                raw = max(sub_latencies)
                slowest = min(
                    shard
                    for (done, _, shard), lat in zip(completions, sub_latencies)
                    if lat == raw
                )
                straggler[slowest]["count"] += 1
                straggler[slowest]["seconds"] += raw

                effective = raw
                if multiplier > 0 and len(completions) >= 2:
                    ordered = sorted(sub_latencies)
                    median = ordered[(len(ordered) - 1) // 2]
                    services = sorted(svc for _, svc, _ in completions)
                    median_service = services[(len(services) - 1) // 2]
                    deadline = multiplier * median
                    capped = []
                    for lat in sub_latencies:
                        if lat > deadline:
                            hedges_issued += 1
                            hedged = min(lat, deadline + median_service)
                            if hedged < lat:
                                hedges_won += 1
                            capped.append(hedged)
                        else:
                            capped.append(lat)
                    effective = max(capped)
                    hedge_saved += raw - effective
                latencies.append(effective)
                if span is not None:
                    span.set("latency", _round(effective))
                    span.set("straggler", slowest)
                if obs is not None:
                    self._h_straggler.observe(raw)

        if obs is not None and hedges_issued:
            self._c_hedge_issued.inc(hedges_issued)
            self._c_hedge_won.inc(hedges_won)

        return {
            "queries": total,
            "front_door_shed": front_shed,
            "dispatched": len(dispatched),
            "answered": answered,
            "partial": partial,
            "unresolved": unresolved,
            "widths": distribution(widths, tail=True),
            "latency": distribution(latencies, tail=True),
            "straggler": {
                shard: {
                    "count": entry["count"],
                    "seconds": _round(entry["seconds"]),
                }
                for shard, entry in sorted(straggler.items())
            },
            "hedge": {
                "enabled": multiplier > 0,
                "multiplier": multiplier,
                "issued": hedges_issued,
                "won": hedges_won,
                "saved_seconds": _round(hedge_saved),
            },
        }

    # -- fleet rollup ------------------------------------------------------

    def _rollup(
        self, shard_reports: dict[str, dict], catalogs: dict[str, SampleCatalog]
    ) -> dict:
        totals = {
            "queries_answered": 0,
            "queries_shed": 0,
            "queries_deferred": 0,
            "ingest_batches": 0,
            "elements_ingested": 0,
            "refresh_jobs": 0,
            "forced_refreshes": 0,
        }
        makespan = 0.0
        device_accesses = 0
        for report in shard_reports.values():
            for key in totals:
                totals[key] += report[key]
            makespan = max(makespan, report["clock_seconds"])
            device_accesses += sum(report["device"].values())
        totals["shards"] = len(shard_reports)
        totals["samples"] = sum(len(c.names()) for c in catalogs.values())
        totals["makespan_seconds"] = _round(makespan)
        totals["device_accesses"] = device_accesses
        return totals
