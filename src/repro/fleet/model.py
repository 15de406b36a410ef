"""The vectorised fleet model: fleet-scale sweeps in seconds.

The full engine executes every sub-query against a real catalog, which
caps it at thousands of events.  This engine keeps the fleet *semantics*
-- seeded consistent-hash placement, per-tenant token buckets, per-shard
single-server queueing, fan-out merge with straggler attribution and
analytic hedging -- but replaces per-sample maintenance with a queueing
**model**: service times are exponential draws around configured means
(``model_read_service_seconds`` / ``model_ingest_service_seconds``)
instead of measured cost deltas.  Model-engine numbers are comparable
only to other model runs, never to full-engine runs; the report's
``engine`` field says which produced it.

Everything is drawn up front from one PCG64 generator seeded by the
``model`` child of the fleet seed, and the only per-event state -- each
shard's busy-server recursion and each token bucket's level -- is
computed either by an exact vector recurrence or a tight loop over
pre-sorted arrays:

* per-shard completion times use the prefix form of the single-server
  recursion ``start_k = max(arrival_k, completion_{k-1})``::

      completion = np.maximum.accumulate(arrival - (cum - svc)) + cum

  with ``cum`` the running sum of service times -- identical to the
  event-by-event recursion, in one vector pass per shard;
* token buckets reuse :class:`~repro.fleet.quota.TenantQuotas` verbatim,
  fed each bucket's own arrivals in time order (a bucket's decisions
  depend only on its own history, so per-bucket processing is exact).

Same seed, same bytes: the CI fleet-smoke step runs this engine twice at
16 shards / 10k samples / 1M+ events and ``cmp``\\ s the reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.fleet.quota import TenantQuotas, parse_quotas
from repro.fleet.ring import HashRing
from repro.fleet.router import _round, ring_section
from repro.rng import RandomSource, numpy_generator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.sim import FleetConfig
    from repro.obs.api import Instrumentation

__all__ = ["run_model_simulation"]


def _dist(values: np.ndarray, p99: bool = False) -> dict:
    """Nearest-rank distribution over a float array, canonical rounding."""
    n = int(values.size)
    if n == 0:
        return {"count": 0}
    ordered = np.sort(values)
    out = {
        "count": n,
        "mean": _round(float(ordered.sum() / n)),
        "p50": _round(float(ordered[(50 * (n - 1)) // 100])),
        "p95": _round(float(ordered[(95 * (n - 1)) // 100])),
        "max": _round(float(ordered[-1])),
    }
    if p99:
        out["p99"] = _round(float(ordered[(99 * (n - 1)) // 100]))
    return out


def _quota_gate(
    quotas: TenantQuotas,
    tenant_names: list[str],
    base_arrival: np.ndarray,
    base_tenant: np.ndarray,
    base_is_ingest: np.ndarray,
    fan_arrival: np.ndarray,
    fan_tenant: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Run every arrival through its (tenant, kind) bucket in time order.

    Base and fan-out reads share one ``reads`` bucket per tenant; on a
    time tie the base event goes first, matching the full engine's
    (time, seq) order (base seqs sort below fan-out seqs).
    """
    base_admit = np.ones(base_arrival.size, dtype=bool)
    fan_admit = np.ones(fan_arrival.size, dtype=bool)
    for t, tenant in enumerate(tenant_names):
        ingest_idx = np.flatnonzero((base_tenant == t) & base_is_ingest)
        for i in ingest_idx:
            base_admit[i] = quotas.check(
                tenant, "ingest", float(base_arrival[i])
            ).admitted
        read_idx = np.flatnonzero((base_tenant == t) & ~base_is_ingest)
        fan_idx = np.flatnonzero(fan_tenant == t)
        times = np.concatenate((base_arrival[read_idx], fan_arrival[fan_idx]))
        # Stable sort keeps base-before-fan-out on exact time ties.
        order = np.argsort(times, kind="stable")
        split = read_idx.size
        for pos in order:
            admitted = quotas.check(tenant, "reads", float(times[pos])).admitted
            if pos < split:
                base_admit[read_idx[pos]] = admitted
            else:
                fan_admit[fan_idx[pos - split]] = admitted
    return base_admit, fan_admit


def run_model_simulation(
    config: "FleetConfig",
    instrumentation: "Instrumentation | None" = None,
) -> dict:
    """Run the vectorised fleet model; returns the report's section dict."""
    obs = instrumentation
    serve = config.serve
    sample_names = serve.sample_names()
    shard_names = config.shard_names()
    tenant_names = config.tenant_names()
    K, S, T = len(sample_names), len(shard_names), len(tenant_names)
    E, F = serve.events, config.fanout_queries

    ring = HashRing(seed=serve.seed, vnodes=config.vnodes, shards=shard_names)
    shard_index = {name: index for index, name in enumerate(shard_names)}
    place_idx = np.array(
        [shard_index[ring.place(name)] for name in sample_names], dtype=np.int64
    )

    rng = numpy_generator(RandomSource(serve.seed).spawn("model").seed)

    # -- pre-draw the base stream -----------------------------------------
    base_arrival = np.cumsum(rng.exponential(serve.mean_gap_seconds, E))
    base_sample = rng.integers(0, K, E)
    base_is_ingest = rng.random(E) < serve.ingest_fraction
    base_service = rng.exponential(1.0, E) * np.where(
        base_is_ingest,
        config.model_ingest_service_seconds,
        config.model_read_service_seconds,
    )
    base_tenant = base_sample % T

    # -- pre-draw the fan-out stream and its sub-queries -------------------
    fan_arrival = np.cumsum(rng.exponential(config.fanout_mean_gap_seconds, F))
    low, high = config.fanout_width
    high = min(high, K)
    low = min(low, high)
    fan_width = low + rng.integers(0, high - low + 1, F)
    fan_tenant = rng.integers(0, T, F)
    # Distinct samples per query: draw with replacement, sort each row
    # with a sentinel K past the width, keep first-of-run uniques.  The
    # effective width (distinct samples) is what the report counts.
    mat = rng.integers(0, K, (F, high if F else 1))
    col_mask = np.arange(mat.shape[1])[None, :] < fan_width[:, None]
    sorted_rows = np.sort(np.where(col_mask, mat, K), axis=1)
    uniq = np.ones_like(sorted_rows, dtype=bool)
    uniq[:, 1:] = np.diff(sorted_rows, axis=1) != 0
    uniq &= sorted_rows < K
    sub_sample = sorted_rows[uniq]
    eff_width = uniq.sum(axis=1)
    sub_fid = np.repeat(np.arange(F), eff_width)
    sub_service = rng.exponential(config.model_read_service_seconds, sub_sample.size)

    # -- front door: per-tenant token buckets ------------------------------
    quotas = TenantQuotas(parse_quotas(config.quotas), instrumentation=obs)
    if quotas.enabled:
        base_admit, fan_admit = _quota_gate(
            quotas,
            tenant_names,
            base_arrival,
            base_tenant,
            base_is_ingest,
            fan_arrival,
            fan_tenant,
        )
    else:
        base_admit = np.ones(E, dtype=bool)
        fan_admit = np.ones(F, dtype=bool)
    fanout_front_shed = int(F - int(fan_admit.sum()))

    # -- unified op table, global (time, seq) order ------------------------
    sub_keep = fan_admit[sub_fid] if F else np.zeros(0, dtype=bool)
    op_arrival = np.concatenate(
        (base_arrival[base_admit], fan_arrival[sub_fid[sub_keep]])
    )
    op_service = np.concatenate(
        (base_service[base_admit], sub_service[sub_keep])
    )
    op_shard = np.concatenate(
        (
            place_idx[base_sample[base_admit]],
            place_idx[sub_sample[sub_keep]],
        )
    )
    op_is_ingest = np.concatenate(
        (base_is_ingest[base_admit], np.zeros(int(sub_keep.sum()), dtype=bool))
    )
    op_fid = np.concatenate(
        (
            np.full(int(base_admit.sum()), -1, dtype=np.int64),
            sub_fid[sub_keep],
        )
    )
    # Sub-query seqs start above every base and fan-out seq -- the same
    # tie-break convention as the full engine's router.
    op_seq = np.concatenate(
        (
            np.flatnonzero(base_admit),
            E + F + np.flatnonzero(sub_keep),
        )
    )
    order = np.lexsort((op_seq, op_arrival))
    op_arrival = op_arrival[order]
    op_service = op_service[order]
    op_shard = op_shard[order]
    op_is_ingest = op_is_ingest[order]
    op_fid = op_fid[order]

    # -- per-shard single-server queueing (exact vector recursion) ---------
    op_completion = np.zeros(op_arrival.size)
    shard_sections: dict[str, dict] = {}
    makespan = 0.0
    busy_total = 0.0
    for s, shard in enumerate(shard_names):
        mask = op_shard == s
        arrival = op_arrival[mask]
        service = op_service[mask]
        cum = np.cumsum(service)
        completion = (
            np.maximum.accumulate(arrival - (cum - service)) + cum
            if arrival.size
            else cum
        )
        op_completion[mask] = completion
        clock = float(completion[-1]) if completion.size else 0.0
        busy = float(service.sum())
        makespan = max(makespan, clock)
        busy_total += busy
        latency = completion - arrival
        shard_sections[shard] = {
            "ops": int(arrival.size),
            "queries": int((~op_is_ingest[mask]).sum()),
            "ingest": int(op_is_ingest[mask].sum()),
            "owned_samples": int((place_idx == s).sum()),
            "busy_seconds": _round(busy),
            "clock_seconds": _round(clock),
            "utilization": _round(busy / clock) if clock > 0 else 0.0,
            "latency": _dist(latency),
        }

    # -- fan-out merge: straggler attribution + analytic hedging -----------
    sub_rows = op_fid >= 0
    sfid = op_fid[sub_rows]
    s_shard = op_shard[sub_rows]
    s_svc = op_service[sub_rows]
    s_lat = op_completion[sub_rows] - op_arrival[sub_rows]
    multiplier = config.hedge_multiplier
    hedges_issued = hedges_won = 0
    hedge_saved = 0.0
    straggler_count = np.zeros(S, dtype=np.int64)
    straggler_seconds = np.zeros(S)
    if sfid.size:
        by_lat = np.lexsort((-s_shard, s_lat, sfid))
        sorted_fid = sfid[by_lat]
        starts = np.flatnonzero(
            np.concatenate(([True], np.diff(sorted_fid) != 0))
        )
        ends = np.concatenate((starts[1:], [sorted_fid.size])) - 1
        counts = ends - starts + 1
        present_fid = sorted_fid[starts]
        raw_max = s_lat[by_lat][ends]
        # Among max-latency ties the smallest shard index sorts last
        # (shard key is descending), so `ends` names the straggler.
        straggler_of = s_shard[by_lat][ends]
        np.add.at(straggler_count, straggler_of, 1)
        np.add.at(straggler_seconds, straggler_of, raw_max)
        effective = raw_max
        if multiplier > 0:
            median_lat = s_lat[by_lat][starts + (counts - 1) // 2]
            by_svc = np.lexsort((s_svc, sfid))
            median_svc = s_svc[by_svc][starts + (counts - 1) // 2]
            deadline_by_fid = np.zeros(F)
            cap_by_fid = np.zeros(F)
            hedgeable = np.zeros(F, dtype=bool)
            deadline_by_fid[present_fid] = multiplier * median_lat
            cap_by_fid[present_fid] = multiplier * median_lat + median_svc
            hedgeable[present_fid] = counts >= 2
            issued = hedgeable[sfid] & (s_lat > deadline_by_fid[sfid])
            hedged_lat = np.where(
                issued, np.minimum(s_lat, cap_by_fid[sfid]), s_lat
            )
            hedges_issued = int(issued.sum())
            hedges_won = int((issued & (hedged_lat < s_lat)).sum())
            eff_by_fid = np.zeros(F)
            np.maximum.at(eff_by_fid, sfid, hedged_lat)
            effective = eff_by_fid[present_fid]
            hedge_saved = float((raw_max - effective).sum())
        fan_latency = _dist(effective, p99=True)
        width_values = eff_width[fan_admit].astype(float) if F else np.zeros(0)
    else:
        fan_latency = {"count": 0}
        width_values = np.zeros(0)

    if obs is not None:
        obs.gauge("fleet.shards").set(S)
        obs.counter("fleet.fanout_queries").inc(F)
        obs.counter("fleet.fanout_subqueries").inc(int(sfid.size))
        if hedges_issued:
            obs.counter("fleet.hedges_issued").inc(hedges_issued)
            obs.counter("fleet.hedges_won").inc(hedges_won)

    base_reads = base_admit & ~base_is_ingest
    base_read_latency = (
        op_completion[op_fid == -1][~op_is_ingest[op_fid == -1]]
        - op_arrival[op_fid == -1][~op_is_ingest[op_fid == -1]]
    )

    fanout_section = {
        "queries": F,
        "front_door_shed": fanout_front_shed,
        "dispatched": int(fan_admit.sum()),
        "answered": int(fan_admit.sum()),
        "partial": 0,
        "unresolved": 0,
        "widths": _dist(width_values),
        "latency": fan_latency,
        "straggler": {
            shard: {
                "count": int(straggler_count[s]),
                "seconds": _round(float(straggler_seconds[s])),
            }
            for s, shard in enumerate(shard_names)
        },
        "hedge": {
            "enabled": multiplier > 0,
            "multiplier": multiplier,
            "issued": hedges_issued,
            "won": hedges_won,
            "saved_seconds": _round(hedge_saved),
        },
    }
    fleet_section = {
        "shards": S,
        "samples": K,
        "tenants": T,
        "ops": int(op_arrival.size),
        "queries_answered": int(base_reads.sum()),
        "ingest_batches": int((base_admit & base_is_ingest).sum()),
        "fanout_subqueries": int(sfid.size),
        "makespan_seconds": _round(makespan),
        "busy_seconds": _round(busy_total),
        "utilization_mean": _round(busy_total / (makespan * S))
        if makespan > 0
        else 0.0,
        "base_read_latency": _dist(base_read_latency, p99=True),
    }
    return {
        "engine": "model",
        "ring": ring_section(ring, sample_names),
        "quota": quotas.stats(),
        "fanout": fanout_section,
        "fleet": fleet_section,
        "shards": shard_sections,
    }
