"""The ``repro fleet-sim`` subcommand: run one sharded fleet simulation.

Prints a fleet summary (placement balance, quota sheds, fan-out widths
and straggler tail) and can write the full canonical JSON report to a
file.  Same seed, same bytes -- the CI fleet-smoke step runs the model
engine twice at 16 shards / 10k samples / 1M+ events and ``cmp``\\ s the
two reports.

Self-contained on the pattern of :mod:`repro.serve.cli`: the main CLI
calls :func:`add_fleet_sim_parser` at parser-build time and
:func:`run_fleet_sim_command` on dispatch; the fleet stack is imported
lazily so ``repro --help`` stays fast.
"""

from __future__ import annotations

import argparse
import sys

from repro.serve.cli import add_shared_sim_arguments, shared_config_fields

__all__ = ["add_fleet_sim_parser", "run_fleet_sim_command"]


def add_fleet_sim_parser(sub) -> argparse.ArgumentParser:
    parser = sub.add_parser(
        "fleet-sim",
        help="simulate the sharded fleet catalog (deterministic)",
        description=(
            "Simulate the sharded fleet catalog (deterministic). "
            "--algorithm, --policy, --pool-capacity and --no-trace only "
            "affect --engine full; the model engine ignores them and "
            "accepts only uniform --kinds."
        ),
    )
    add_shared_sim_arguments(parser, samples_default=8)
    parser.add_argument("--shards", type=int, default=4, help="shard count")
    parser.add_argument(
        "--fanout",
        type=int,
        default=0,
        help="cross-shard fan-out queries (0 = none)",
    )
    parser.add_argument(
        "--fanout-width",
        default="2:8",
        metavar="LOW:HIGH",
        help="samples per fan-out query, uniform in this range",
    )
    parser.add_argument(
        "--tenants", type=int, default=4, help="tenant count (samples rotate)"
    )
    parser.add_argument(
        "--quota",
        action="append",
        default=[],
        metavar="SPEC",
        help=(
            "front-door quota tenant:kind:rate:burst (kind reads|ingest; "
            "tenant * = per-tenant default; repeatable)"
        ),
    )
    parser.add_argument(
        "--hedge",
        type=float,
        default=0.0,
        metavar="MULT",
        help=(
            "hedged re-read accounting: cap sub-queries slower than MULT x "
            "the query's median sub-latency (0 = off)"
        ),
    )
    parser.add_argument(
        "--vnodes",
        type=int,
        default=64,
        help="virtual nodes per shard on the placement ring",
    )
    parser.add_argument(
        "--engine",
        default="auto",
        choices=("auto", "full", "model"),
        help="auto picks full at small scale, the vectorised model beyond",
    )
    parser.add_argument(
        "--mean-gap",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="mean arrival gap of the base workload (cost seconds)",
    )
    return parser


def run_fleet_sim_command(args: argparse.Namespace) -> int:
    from repro.fleet.sim import FleetConfig, run_fleet_simulation
    from repro.fleet.workload import parse_width
    from repro.obs.api import Instrumentation
    from repro.serve.sim import SimConfig
    from repro.storage.cost_model import CostModel

    try:
        config = FleetConfig(
            serve=SimConfig(
                **shared_config_fields(args), mean_gap_seconds=args.mean_gap
            ),
            shards=args.shards,
            fanout_queries=args.fanout,
            fanout_width=parse_width(args.fanout_width),
            tenants=args.tenants,
            quotas=tuple(args.quota),
            hedge_multiplier=args.hedge,
            vnodes=args.vnodes,
            engine=args.engine,
        )
    except ValueError as exc:
        print(f"fleet-sim: {exc}", file=sys.stderr)
        return 2
    instrumentation = Instrumentation(cost_model=CostModel())
    report = run_fleet_simulation(
        config,
        instrumentation=instrumentation,
        include_trace=not args.no_trace,
    )

    print(
        f"fleet-sim  seed={config.serve.seed}  engine={report.engine}  "
        f"shards={config.shards}  samples={config.serve.samples}"
    )
    balance = report.ring["balance"]
    probe = report.ring["rebalance_probe"]
    print(
        f"  placement: min={balance['min']} max={balance['max']} "
        f"mean={balance['mean']:.1f} per shard  "
        f"(+1 shard would move {probe['moved']}/{probe['moved'] + probe['stayed']})"
    )
    quota = report.quota
    if quota.get("enabled"):
        print(
            f"  quota: admitted={quota['total_admitted']} "
            f"shed={quota['total_shed']} across {len(quota['tenants'])} tenants"
        )
    fleet = report.fleet
    print(
        f"  fleet: makespan={fleet['makespan_seconds']:.6f} cost-s  "
        f"queries={fleet['queries_answered']}  "
        f"ingest={fleet['ingest_batches']}"
    )
    fanout = report.fanout
    if fanout["queries"]:
        latency = fanout["latency"]
        print(
            f"  fan-out: {fanout['queries']} queries "
            f"(dispatched={fanout['dispatched']} "
            f"front-door shed={fanout['front_door_shed']} "
            f"answered={fanout['answered']} partial={fanout['partial']} "
            f"unresolved={fanout['unresolved']})"
        )
        if latency.get("count"):
            print(
                "  fan-out latency (cost-s): "
                f"p50={latency['p50']:.6f}  p95={latency['p95']:.6f}  "
                f"p99={latency['p99']:.6f}  max={latency['max']:.6f}"
            )
        stragglers = sorted(
            fanout["straggler"].items(),
            key=lambda item: (-item[1]["count"], item[0]),
        )[:3]
        slowest = ", ".join(
            f"{shard}x{entry['count']}" for shard, entry in stragglers if entry["count"]
        )
        if slowest:
            print(f"  stragglers: {slowest}")
        hedge = fanout["hedge"]
        if hedge["enabled"]:
            print(
                f"  hedges: issued={hedge['issued']} won={hedge['won']} "
                f"saved={hedge['saved_seconds']:.6f} cost-s"
            )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json(include_trace=not args.no_trace))
            handle.write("\n")
        print(f"  report written to {args.json}")
    return 0
