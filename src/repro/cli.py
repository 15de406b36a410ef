"""Command-line interface: regenerate the paper's experiments.

Examples
--------

Run one figure at the default scale::

    python -m repro.cli run fig6

Run everything at paper scale (1M sample, 100M inserts)::

    python -m repro.cli run all --scale paper

List available experiments::

    python -m repro.cli list
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.figures import FIGURES, all_experiments, get_figure
from repro.experiments.report import (
    format_series_csv,
    format_series_json,
    format_series_table,
)
from repro.experiments.scaling import SCALES

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Deferred Maintenance of Disk-Based Random "
            "Samples' (Gemulla & Lehner, EDBT 2006)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        help=(
            f"experiment id: one of {', '.join(sorted(FIGURES))}, "
            "an extension (extra-accuracy, extra-bias), or 'all'"
        ),
    )
    run.add_argument(
        "--scale",
        default="default",
        choices=sorted(SCALES),
        help="experiment scale (paper = 1M sample / 100M inserts)",
    )
    run.add_argument("--seed", type=int, default=0, help="base random seed")
    run.add_argument(
        "--format",
        default="table",
        choices=("table", "csv", "json"),
        help="output format for the regenerated series",
    )

    sub.add_parser("list", help="list available experiments and scales")

    from repro.devtools.cli import add_lint_parser

    add_lint_parser(sub)

    from repro.obs.cli import add_stats_parser

    add_stats_parser(sub)

    validate = sub.add_parser(
        "validate",
        help="check the vectorised engine against the reference implementation",
    )
    validate.add_argument("--trials", type=int, default=20)
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument(
        "--tolerance", type=float, default=0.10,
        help="maximum acceptable relative error on total cost",
    )

    from repro.devtools.bench_compare import add_bench_compare_parser

    add_bench_compare_parser(sub)

    from repro.serve.cli import add_serve_sim_parser

    add_serve_sim_parser(sub)

    from repro.fleet.cli import add_fleet_sim_parser

    add_fleet_sim_parser(sub)

    from repro.obs.trace_cli import add_trace_parser

    add_trace_parser(sub)

    from repro.replication.cli import add_dr_drill_parser

    add_dr_drill_parser(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        experiments = all_experiments()
        print("experiments:")
        for name in sorted(experiments):
            doc = (experiments[name].__doc__ or "").strip().splitlines()[0]
            print(f"  {name:<14} {doc}")
        print("scales:")
        for name, scale in SCALES.items():
            print(
                f"  {name:<10} M={scale.sample_size:>9,}  "
                f"inserts={scale.inserts:>12,}  period={scale.refresh_period:,}"
            )
        return 0

    if args.command == "lint":
        from repro.devtools.cli import run_lint_command

        return run_lint_command(args)

    if args.command == "stats":
        from repro.obs.cli import run_stats_command

        return run_stats_command(args)

    if args.command == "bench-compare":
        from repro.devtools.bench_compare import run_bench_compare_command

        return run_bench_compare_command(args)

    if args.command == "serve-sim":
        from repro.serve.cli import run_serve_sim_command

        return run_serve_sim_command(args)

    if args.command == "fleet-sim":
        from repro.fleet.cli import run_fleet_sim_command

        return run_fleet_sim_command(args)

    if args.command == "trace":
        from repro.obs.trace_cli import run_trace_command

        return run_trace_command(args)

    if args.command == "dr-drill":
        from repro.replication.cli import run_dr_drill_command

        return run_dr_drill_command(args)

    if args.command == "validate":
        from repro.experiments.validation import validate_engine

        report = validate_engine(trials=args.trials, seed=args.seed)
        print(report.summary())
        if not report.passed(args.tolerance):
            print(f"FAILED: worst error exceeds {args.tolerance:.0%}")
            return 1
        print("PASSED")
        return 0

    names = (
        sorted(all_experiments()) if args.experiment == "all"
        else [args.experiment]
    )
    formatters = {
        "table": format_series_table,
        "csv": format_series_csv,
        "json": format_series_json,
    }
    for name in names:
        runner = get_figure(name)
        started = time.perf_counter()
        result = runner(scale=args.scale, seed=args.seed)
        elapsed = time.perf_counter() - started
        print(formatters[args.format](result), end="" if args.format != "table" else "\n")
        if args.format == "table":
            print(f"  [computed in {elapsed:.2f}s]")
            print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
