"""The instrument catalogue: every metric the library may emit.

One central, literal declaration per instrument keeps the telemetry
surface reviewable (docs/observability.md renders this table) and makes
it machine-checkable: the OBS001 lint rule parses this module's
``INSTRUMENTS`` dict and rejects any ``counter("...")`` / ``gauge("...")``
/ ``histogram("...")`` emit site whose literal name is not declared here.
The registry enforces the same membership at runtime.

Units follow the paper's currency: ``blocks`` are block-level accesses,
``seconds`` are cost-model seconds (counted accesses weighted with the
Sec. 6.1 access times), never wall-clock time.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["InstrumentSpec", "INSTRUMENTS", "SPANS", "COUNT_BUCKETS", "SECONDS_BUCKETS"]


class InstrumentSpec(NamedTuple):
    kind: str  # "counter" | "gauge" | "histogram"
    description: str
    unit: str = ""


#: Bucket boundaries for count-valued histograms (|C|, Psi, blocks).
COUNT_BUCKETS: tuple[float, ...] = (
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
)

#: Bucket boundaries for cost-model-second histograms.
SECONDS_BUCKETS: tuple[float, ...] = (
    0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0,
)


INSTRUMENTS: dict[str, InstrumentSpec] = {
    # -- maintenance lifecycle (SampleMaintainer, baselines) ----------------
    "maintenance.inserts": InstrumentSpec(
        "counter", "insertions processed by the maintenance front door"
    ),
    "maintenance.accepted": InstrumentSpec(
        "counter", "acceptance tests that admitted the element as a candidate"
    ),
    "maintenance.rejected": InstrumentSpec(
        "counter", "acceptance tests that discarded the element"
    ),
    "maintenance.inserts_skipped": InstrumentSpec(
        "counter",
        "elements the skip-based insert path rejected without per-element "
        "work (every rejected insertion, single inserts included)",
    ),
    "maintenance.refreshes": InstrumentSpec(
        "counter", "deferred refresh cycles completed"
    ),
    "maintenance.displaced": InstrumentSpec(
        "counter", "sample elements overwritten by final candidates (sum of Psi)"
    ),
    # -- staleness / candidate-log growth -----------------------------------
    "sample.pending_log_elements": InstrumentSpec(
        "gauge", "logged elements not yet folded into the sample (staleness)",
        "elements",
    ),
    "log.appended_elements": InstrumentSpec(
        "counter", "elements appended to the log across all generations",
        "elements",
    ),
    "log.blocks": InstrumentSpec(
        "gauge", "blocks the current log generation occupies", "blocks"
    ),
    # -- refresh outcomes ----------------------------------------------------
    "refresh.candidates": InstrumentSpec(
        "histogram", "candidate count |C| per refresh", "elements"
    ),
    "refresh.displaced": InstrumentSpec(
        "histogram", "displaced count Psi per refresh", "elements"
    ),
    "refresh.cost_seconds": InstrumentSpec(
        "histogram", "cost-model seconds per refresh cycle", "seconds"
    ),
    # -- per-device access telemetry ----------------------------------------
    "device.accesses": InstrumentSpec(
        "counter",
        "block accesses, labelled device= kind=read|write pattern=seq|random",
        "blocks",
    ),
    "device.crashes": InstrumentSpec(
        "counter", "injected crashes fired, labelled device=", "crashes"
    ),
    # -- buffer-pool page cache (repro.storage.bufferpool) -------------------
    "storage.pool.hits": InstrumentSpec(
        "counter", "charged reads served from a resident frame, labelled device=",
        "blocks",
    ),
    "storage.pool.misses": InstrumentSpec(
        "counter", "charged reads that went to the device, labelled device=",
        "blocks",
    ),
    "storage.pool.readahead_blocks": InstrumentSpec(
        "counter",
        "blocks prefetched inside a declared scan window, labelled device=",
        "blocks",
    ),
    "storage.pool.evictions": InstrumentSpec(
        "counter", "frames evicted to make room (LRU), labelled device=", "blocks"
    ),
    "storage.pool.flushed_blocks": InstrumentSpec(
        "counter",
        "dirty frames written back at a flush barrier or eviction, "
        "labelled device=",
        "blocks",
    ),
    "storage.pool.coalesced_writes": InstrumentSpec(
        "counter",
        "buffered writes absorbed by an already-dirty frame, labelled device=",
        "blocks",
    ),
    # -- geometric-file baseline --------------------------------------------
    "gf.flushes": InstrumentSpec(
        "counter", "geometric-file buffer flushes (segment creations)"
    ),
    "gf.buffered_elements": InstrumentSpec(
        "gauge", "candidates held in the geometric file's in-memory buffer",
        "elements",
    ),
    # -- serving layer (repro.serve) ----------------------------------------
    "serve.queries": InstrumentSpec(
        "counter", "queries admitted and answered by the sample server"
    ),
    "serve.shed": InstrumentSpec(
        "counter", "queries rejected by admission control (backpressure)"
    ),
    "serve.deferred": InstrumentSpec(
        "counter", "queries deferred past the operation holding the device"
    ),
    "serve.refresh_jobs": InstrumentSpec(
        "counter", "refresh jobs executed by the deterministic scheduler"
    ),
    "serve.forced_refreshes": InstrumentSpec(
        "counter",
        "refreshes forced on the read path by bounded_staleness/refresh_on_read",
    ),
    "serve.ingest_batches": InstrumentSpec(
        "counter", "ingest batches applied to the catalog by the scheduler"
    ),
    "serve.query_latency_seconds": InstrumentSpec(
        "histogram",
        "cost-model seconds from query arrival to answer (wait + service)",
        "seconds",
    ),
    "serve.query_staleness": InstrumentSpec(
        "histogram",
        "pending log elements of the target sample at answer time",
        "elements",
    ),
    "serve.queue_depth": InstrumentSpec(
        "gauge", "events waiting behind the device at the last admission check"
    ),
    "serve.catalog_samples": InstrumentSpec(
        "gauge", "samples registered in the serving catalog"
    ),
    # -- replication link + replica site (repro.replication) ----------------
    "replication.lag_seconds": InstrumentSpec(
        "gauge",
        "cost-seconds the last shipped commit batch waited in the outbox",
        "seconds",
    ),
    "replication.shipped_batches": InstrumentSpec(
        "counter", "commit batches shipped to the replica"
    ),
    "replication.shipped_bytes": InstrumentSpec(
        "counter", "block payload bytes shipped to the replica", "bytes"
    ),
    "replication.backlog_batches": InstrumentSpec(
        "gauge", "sealed commit batches waiting in the primary's outbox"
    ),
    # -- sharded fleet catalog (repro.fleet) ---------------------------------
    "fleet.shards": InstrumentSpec(
        "gauge", "shards on the fleet's placement ring"
    ),
    "fleet.quota_admitted": InstrumentSpec(
        "counter", "requests admitted by a front-door tenant token bucket"
    ),
    "fleet.quota_shed": InstrumentSpec(
        "counter", "requests shed at the front door by tenant quotas"
    ),
    "fleet.fanout_queries": InstrumentSpec(
        "counter", "cross-shard fan-out queries presented to the router"
    ),
    "fleet.fanout_subqueries": InstrumentSpec(
        "counter", "per-shard sub-queries dispatched for fan-out queries"
    ),
    "fleet.hedges_issued": InstrumentSpec(
        "counter", "sub-queries past the hedge deadline (hedged re-read issued)"
    ),
    "fleet.hedges_won": InstrumentSpec(
        "counter", "hedged re-reads that beat the straggler's completion"
    ),
    "fleet.straggler_latency_seconds": InstrumentSpec(
        "histogram",
        "slowest-shard (pre-hedge) latency of each answered fan-out query",
        "seconds",
    ),
    # -- vectorised experiment engine ---------------------------------------
    "engine.candidates": InstrumentSpec(
        "counter", "candidates realised by the vectorised engine", "elements"
    ),
    "engine.refreshes": InstrumentSpec(
        "counter", "refresh periods simulated by the vectorised engine"
    ),
    "engine.online_seconds": InstrumentSpec(
        "gauge", "simulated online cost of the last engine run", "seconds"
    ),
    "engine.offline_seconds": InstrumentSpec(
        "gauge", "simulated offline cost of the last engine run", "seconds"
    ),
}


#: The trace-span catalogue: every span name the library may open.
#:
#: Like ``INSTRUMENTS``, this is one central literal declaration so the
#: tracing surface stays reviewable and machine-checkable: OBS001 parses
#: this dict and rejects any ``span("...")`` / ``maybe_span(obs, "...")``
#: site under serve/ or storage/ whose literal name is not declared here.
#: Parent-child relationships are recorded per span instance (span_id /
#: parent_id), not here -- the same span name can appear under different
#: parents (e.g. ``refresh`` under ``serve.refresh_job`` vs.
#: ``session.refresh_forced``).
SPANS: dict[str, str] = {
    # -- maintenance core (repro.core.maintenance, baselines) ---------------
    "batch_insert": "one insert batch chunk; one insertion is a batch of one "
    "(attrs: n, consumed, accepted)",
    "refresh": "one deferred refresh cycle (attrs: candidates, displaced)",
    "refresh.log_flush": "log flush/truncate at the end of a refresh",
    "refresh.precompute": "offline precompute phase of a refresh",
    "refresh.write": "sequential write pass of a refresh",
    "gf.flush": "geometric-file buffer flush (segment creation)",
    "maintenance.checkpoint": "durable checkpoint capture of maintainer state",
    # -- serving layer (repro.serve) ----------------------------------------
    "serve.event": "one scheduler event, root of the per-request trace tree",
    "serve.admit": "admission-control decision for a query arrival",
    "serve.ingest": "ingest batch applied to a catalog sample",
    "serve.query": "admitted query from dispatch to answer",
    "serve.shed": "query rejected by admission control",
    "serve.refresh_job": "background refresh job run by the scheduler",
    "session.read": "QuerySession read path (freshness check + scan + estimate)",
    "session.refresh_forced": "refresh forced on the read path by a contract",
    "session.scan": "full sample scan feeding the estimator",
    # -- sharded fleet catalog (repro.fleet) ---------------------------------
    "fleet.place": "consistent-hash placement of the catalog onto shards",
    "fleet.shard_run": "one shard's full scheduler run (attrs: shard, events)",
    "fleet.fanout": "one fan-out query's merge (attrs: width, status, straggler)",
    # -- replication (repro.replication) -------------------------------------
    "replication.ship": "one commit batch shipped to the replica (attrs: lag)",
    "replication.apply": "one commit batch replayed onto replica devices",
    # -- storage engine (repro.storage), deep-trace mode only ----------------
    "storage.pool.read": "buffer-pool read (attrs: hit) -- trace_storage only",
    "storage.pool.write": "buffer-pool buffered write -- trace_storage only",
    "storage.pool.flush": "buffer-pool flush barrier -- trace_storage only",
    "storage.device.read": "block-device read charge -- trace_storage only",
    "storage.device.write": "block-device write charge -- trace_storage only",
    "storage.group_commit": (
        "multi-device group commit barrier (flush + replication seal) -- "
        "trace_storage only"
    ),
}
