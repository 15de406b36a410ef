"""The ``repro serve-sim`` subcommand: run one serving simulation.

Prints a latency/staleness report in cost-model seconds and can write
the full canonical JSON report (including the per-event trace) to a
file.  Same seed, same bytes -- the CI smoke step diffs two runs.

Self-contained on the pattern of :mod:`repro.obs.cli`: the main CLI
calls :func:`add_serve_sim_parser` at parser-build time and
:func:`run_serve_sim_command` on dispatch; the serving stack is imported
lazily so ``repro --help`` stays fast.

The flags ``serve-sim`` shares with ``fleet-sim`` are declared once, in
:func:`add_shared_sim_arguments`, and read back into
:class:`~repro.serve.sim.SimConfig` fields by
:func:`shared_config_fields`.
"""

from __future__ import annotations

import argparse
import sys

__all__ = [
    "add_serve_sim_parser",
    "add_shared_sim_arguments",
    "run_serve_sim_command",
    "shared_config_fields",
]


def add_shared_sim_arguments(
    parser: argparse.ArgumentParser, samples_default: int
) -> None:
    """Register the flags ``serve-sim`` and ``fleet-sim`` both take."""
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument(
        "--samples", type=int, default=samples_default, help="catalog size"
    )
    parser.add_argument(
        "--sample-size", type=int, default=256, help="elements per sample (M)"
    )
    parser.add_argument(
        "--events", type=int, default=200, help="workload events (ingest + query)"
    )
    parser.add_argument(
        "--algorithm",
        default="stack",
        choices=("array", "stack", "nomem", "naive"),
        help="deferred refresh algorithm for every sample",
    )
    parser.add_argument(
        "--kinds",
        default="",
        help="comma-separated sample-kind specs (uniform, weighted[:MOD], "
        "window), assigned round-robin over the global sample index; "
        "empty = all uniform. Non-uniform kinds need --algorithm naive or "
        "array",
    )
    parser.add_argument(
        "--policy",
        default="longest-log:64",
        help=(
            "refresh scheduling policy: fifo[:threshold], "
            "longest-log[:threshold], or deadline:bound"
        ),
    )
    parser.add_argument(
        "--ingest-fraction",
        type=float,
        default=0.5,
        help="fraction of workload events that are ingest batches",
    )
    parser.add_argument(
        "--staleness-bound",
        type=int,
        default=256,
        help="k used by the workload's bounded_staleness queries",
    )
    parser.add_argument(
        "--pool-capacity",
        type=int,
        default=0,
        help=(
            "page-cache frames per device (0 = no buffer pool, "
            "bit-identical paper accounting)"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the full canonical JSON report to PATH",
    )
    parser.add_argument(
        "--no-trace",
        action="store_true",
        help="omit per-event traces from the JSON report",
    )


def shared_config_fields(args: argparse.Namespace) -> dict:
    """The :class:`~repro.serve.sim.SimConfig` fields the shared flags set."""
    return {
        "seed": args.seed,
        "samples": args.samples,
        "sample_size": args.sample_size,
        "events": args.events,
        "algorithm": args.algorithm,
        "kinds": tuple(
            spec.strip() for spec in args.kinds.split(",") if spec.strip()
        ),
        "policy": args.policy,
        "ingest_fraction": args.ingest_fraction,
        "staleness_bound": args.staleness_bound,
        "pool_capacity": args.pool_capacity,
    }


def add_serve_sim_parser(sub) -> argparse.ArgumentParser:
    parser = sub.add_parser(
        "serve-sim",
        help="simulate the staleness-aware sample server (deterministic)",
    )
    add_shared_sim_arguments(parser, samples_default=2)
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="admission control: shed/defer beyond this backlog",
    )
    parser.add_argument(
        "--max-wait-seconds",
        type=float,
        default=None,
        help="admission control: shed/defer beyond this cost-second wait",
    )
    parser.add_argument(
        "--overload-action",
        default="shed",
        choices=("shed", "defer"),
        help="what to do with queries that fail admission",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "export every span as sorted-key JSONL to PATH (deterministic; "
            "enables per-block storage spans; inspect with 'repro trace')"
        ),
    )
    parser.add_argument(
        "--slo",
        action="append",
        default=[],
        metavar="SPEC",
        help=(
            "declare an SLO: latency:SECONDS:OBJECTIVE, "
            "staleness:ROWS:OBJECTIVE, or shed_rate:CEILING (repeatable; "
            "the freshness contract check is always on)"
        ),
    )
    parser.add_argument(
        "--slo-gate",
        action="store_true",
        help="exit non-zero when any declared SLO misses its objective",
    )
    parser.add_argument(
        "--ts-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "window width (cost seconds) for the report's time-series "
            "section (0 = off)"
        ),
    )
    parser.add_argument(
        "--replica",
        action="store_true",
        help=(
            "attach an async replication link + replica site; every "
            "manifest save ships a checkpoint-boundary batch (adds a "
            "'replication' report section)"
        ),
    )
    parser.add_argument(
        "--replica-lag",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "replication-lag budget in cost seconds a sealed commit batch "
            "may wait before shipping (0 = ship at the next opportunity)"
        ),
    )
    return parser


def run_serve_sim_command(args: argparse.Namespace) -> int:
    from repro.obs.api import Instrumentation
    from repro.serve.sim import SimConfig, run_simulation
    from repro.storage.cost_model import CostModel

    try:
        config = SimConfig(
            **shared_config_fields(args),
            max_queue_depth=args.max_queue_depth,
            max_wait_seconds=args.max_wait_seconds,
            overload_action=args.overload_action,
            trace_path=args.trace,
            slos=tuple(args.slo),
            timeseries_interval=args.ts_interval,
            replica=args.replica,
            replica_lag_budget=args.replica_lag,
        )
    except ValueError as exc:
        print(f"serve-sim: {exc}", file=sys.stderr)
        return 2
    instrumentation = Instrumentation(cost_model=CostModel())
    report = run_simulation(config, instrumentation=instrumentation)

    print(f"serve-sim  seed={config.seed}  policy={report.policy}")
    print(
        f"  workload: {report.events} events "
        f"({report.ingest_batches} ingest batches / "
        f"{report.elements_ingested} elements, "
        f"{report.queries_answered} queries answered)"
    )
    print(
        f"  clock: {report.clock_seconds:.6f} cost-seconds  "
        f"refresh jobs: {report.refresh_jobs}  "
        f"forced refreshes: {report.forced_refreshes}"
    )
    print(
        f"  admission: shed={report.queries_shed} "
        f"deferred={report.queries_deferred}"
    )
    latency = report.latency
    if latency.get("count"):
        print(
            "  query latency (cost-s): "
            f"mean={latency['mean']:.6f}  p50={latency['p50']:.6f}  "
            f"p95={latency['p95']:.6f}  max={latency['max']:.6f}"
        )
    staleness = report.staleness
    if staleness.get("count"):
        print(
            "  answer staleness (elements): "
            f"mean={staleness['mean']:.1f}  p95={staleness['p95']:.0f}  "
            f"max={staleness['max']:.0f}"
        )
    online, offline = report.online, report.offline
    print(
        "  I/O online: "
        f"seq r/w={online['seq_reads']}/{online['seq_writes']} "
        f"rand r/w={online['random_reads']}/{online['random_writes']}  "
        "offline: "
        f"seq r/w={offline['seq_reads']}/{offline['seq_writes']} "
        f"rand r/w={offline['random_reads']}/{offline['random_writes']}"
    )
    device = report.device
    total_accesses = sum(device.values())
    print(f"  device accesses: {total_accesses} blocks")
    pool = report.pool
    if pool.get("enabled"):
        print(
            f"  buffer pool: capacity={pool['capacity']} "
            f"hit_rate={pool['hit_rate']:.3f} "
            f"(hits={pool['hits']} misses={pool['misses']} "
            f"readahead={pool['readahead_blocks']} "
            f"coalesced={pool['coalesced_writes']})"
        )
    replication = report.replication
    if replication.get("enabled"):
        lag = replication["lag_seconds"]
        print(
            f"  replication: lag_budget={replication['lag_budget']:g} "
            f"sealed={replication['batches_sealed']} "
            f"shipped={replication['batches_shipped']} "
            f"({replication['bytes_shipped']} bytes) "
            f"backlog={replication['backlog_batches']}  "
            f"lag mean={lag['mean']:.6f} max={lag['max']:.6f}"
        )
    slo = report.slo
    missed = [
        name
        for name, entry in sorted(slo.get("objectives", {}).items())
        if not entry.get("met", True)
    ]
    for name, entry in sorted(slo.get("objectives", {}).items()):
        budget = entry["error_budget"]
        burn = entry["burn_rate"]
        print(
            f"  slo {name}: {'MET' if entry['met'] else 'MISSED'}  "
            f"compliance={entry['compliance']:.6f}  "
            f"budget {budget['consumed']}/{budget['total']:g}"
            + (f"  burn={burn:.3f}" if burn is not None else "")
        )
    if args.trace:
        print(f"  spans written to {args.trace}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json(include_trace=not args.no_trace))
            handle.write("\n")
        print(f"  report written to {args.json}")
    if args.slo_gate and missed:
        print(f"serve-sim: SLO gate failed: {', '.join(missed)}")
        return 1
    return 0
