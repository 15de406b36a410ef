"""The ``repro stats`` subcommand.

Runs one instrumented maintenance cycle (insert window + deferred
refresh) at a configurable small scale and prints the collected
telemetry -- per-phase trace spans in cost-model seconds and block
counts, the instrument snapshot, the per-device sequential/random access
table -- in a choice of formats.  ``--catalogue`` prints the declared
instrument surface instead of running anything.

Self-contained so :mod:`repro.cli` only needs two hooks:
:func:`add_stats_parser` and :func:`run_stats_command`.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.api import Instrumentation
from repro.obs.catalogue import INSTRUMENTS
from repro.obs.exporters import prometheus_text, snapshot_json, write_spans_jsonl

__all__ = [
    "add_stats_parser",
    "print_span_table",
    "run_stats_command",
    "run_instrumented_cycle",
]

_ALGORITHMS = ("array", "stack", "nomem", "naive")
_STRATEGIES = ("candidate", "full", "immediate")


def add_stats_parser(sub: argparse._SubParsersAction) -> argparse.ArgumentParser:
    stats = sub.add_parser(
        "stats",
        help="run one instrumented maintenance cycle and print its telemetry",
        description=(
            "Observability demo and export: runs insert + refresh under the "
            "repro.obs instrumentation layer and prints trace spans "
            "(cost-model seconds, never wall clocks), metrics and per-device "
            "access counts. See docs/observability.md."
        ),
    )
    stats.add_argument(
        "--strategy", default="candidate", choices=_STRATEGIES,
        help="maintenance strategy to run",
    )
    stats.add_argument(
        "--algorithm", default="array", choices=_ALGORITHMS,
        help="deferred refresh algorithm (ignored for strategy=immediate)",
    )
    stats.add_argument("--sample-size", type=int, default=256, help="M")
    stats.add_argument(
        "--inserts", type=int, default=2000, help="insertions before the refresh"
    )
    stats.add_argument("--seed", type=int, default=0, help="random seed")
    stats.add_argument(
        "--trace-inserts", action="store_true",
        help="open a trace span per insert batch (verbose; off by default)",
    )
    stats.add_argument(
        "--format", default="summary",
        choices=("summary", "json", "prometheus", "spans"),
        help=(
            "summary = human-readable tables, json = full snapshot, "
            "prometheus = text exposition format, spans = one JSON line per span"
        ),
    )
    stats.add_argument(
        "--catalogue", action="store_true",
        help="print the declared instrument catalogue and exit",
    )
    stats.add_argument(
        "--spans-file", metavar="PATH", default=None,
        help=(
            "print the span summary for an exported spans JSONL file "
            "(e.g. from serve-sim --trace) instead of running a cycle"
        ),
    )
    return stats


def run_instrumented_cycle(
    strategy: str = "candidate",
    algorithm: str = "array",
    sample_size: int = 256,
    inserts: int = 2000,
    seed: int = 0,
    trace_inserts: bool = False,
) -> Instrumentation:
    """One maintenance cycle under instrumentation; returns the facade.

    The imports live here (not module level) so ``repro stats --help``
    stays instant and the obs package never hard-depends on core.
    """
    from repro.core.maintenance import SampleMaintainer
    from repro.core.refresh.array import ArrayRefresh
    from repro.core.refresh.naive import NaiveCandidateRefresh
    from repro.core.refresh.nomem import NomemRefresh
    from repro.core.refresh.stack import StackRefresh
    from repro.core.reservoir import build_reservoir
    from repro.rng.random_source import RandomSource
    from repro.storage.block_device import SimulatedBlockDevice
    from repro.storage.cost_model import CostModel
    from repro.storage.files import LogFile, SampleFile
    from repro.storage.records import IntRecordCodec

    algorithms = {
        "array": ArrayRefresh,
        "stack": StackRefresh,
        "nomem": NomemRefresh,
        "naive": NaiveCandidateRefresh,
    }
    cost_model = CostModel()
    instrumentation = Instrumentation(
        cost_model=cost_model, trace_inserts=trace_inserts
    )
    codec = IntRecordCodec()
    rng = RandomSource(seed)
    initial_dataset = max(2 * sample_size, sample_size + 1)
    values, seen = build_reservoir(range(initial_dataset), sample_size, rng)
    sample = SampleFile(
        SimulatedBlockDevice(cost_model, "sample-disk", instrumentation),
        codec,
        sample_size,
    )
    sample.initialize(values)
    log = None
    algorithm_obj = None
    if strategy != "immediate":
        log = LogFile(
            SimulatedBlockDevice(cost_model, "log-disk", instrumentation), codec
        )
        algorithm_obj = algorithms[algorithm]()
    maintainer = SampleMaintainer(
        sample,
        rng,
        strategy=strategy,
        initial_dataset_size=seen,
        log=log,
        algorithm=algorithm_obj,
        cost_model=cost_model,
        instrumentation=instrumentation,
    )
    maintainer.insert_many(range(initial_dataset, initial_dataset + inserts))
    maintainer.refresh()
    return instrumentation


def _print_catalogue() -> None:
    width = max(len(name) for name in INSTRUMENTS)
    print(f"{'instrument':<{width}}  kind       unit      description")
    for name, spec in INSTRUMENTS.items():
        unit = spec.unit or "-"
        print(f"{name:<{width}}  {spec.kind:<9}  {unit:<8}  {spec.description}")


#: Span-dict keys that are structure, not user attributes.
_SPAN_FIELDS = frozenset(
    ("span", "parent", "span_id", "parent_id", "trace_id", "start",
     "cost_seconds", "blocks")
)


def print_span_table(records: list[dict]) -> None:
    """The span summary table, from span dicts (in-process or a file).

    One row per span in completion order -- identical output whether the
    dicts came from a live tracer or an exported JSONL file.
    """
    print("trace spans (cost-model seconds; blocks = seq/random x read/write):")
    for record in records:
        indent = "  " if record.get("parent") is None else "    "
        io = record.get("blocks")
        blocks = (
            f"sr={io['seq_reads']} sw={io['seq_writes']} "
            f"rr={io['random_reads']} rw={io['random_writes']}"
            if io is not None
            else "-"
        )
        attrs = " ".join(
            f"{k}={v}" for k, v in record.items() if k not in _SPAN_FIELDS
        )
        print(
            f"{indent}{record['span']:<20} {record['cost_seconds']:>12.6f}s  "
            f"[{blocks}]{'  ' + attrs if attrs else ''}"
        )


def _print_summary(instrumentation: Instrumentation) -> None:
    print_span_table([span.to_dict() for span in instrumentation.tracer.finished])
    print()
    print("per-device block accesses (kind x pattern):")
    rows = [
        (dict(c.labels), c.value)
        for c in instrumentation.registry
        if c.name == "device.accesses"
    ]
    for labels, value in sorted(rows, key=lambda r: sorted(r[0].items())):
        print(
            f"  {labels.get('device', '?'):<12} {labels.get('kind', '?'):<6} "
            f"{labels.get('pattern', '?'):<7} {value:>8}"
        )
    print()
    print("instruments:")
    for instrument in instrumentation.registry:
        if instrument.name == "device.accesses":
            continue
        labels = " ".join(f"{k}={v}" for k, v in instrument.labels)
        if instrument.kind == "histogram":
            value = f"count={instrument.count} sum={instrument.sum:g}"
        else:
            value = f"{instrument.value:g}"
        print(
            f"  {instrument.name:<28} {labels:<20} {value}"
        )


def run_stats_command(args: argparse.Namespace) -> int:
    if args.catalogue:
        _print_catalogue()
        return 0
    if args.spans_file:
        from repro.obs.tracefile import read_spans_jsonl

        try:
            with open(args.spans_file, "r", encoding="utf-8") as handle:
                records = read_spans_jsonl(handle)
        except (OSError, ValueError) as exc:
            print(f"repro stats: {args.spans_file}: {exc}", file=sys.stderr)
            return 2
        print_span_table(records)
        return 0
    if args.sample_size <= 0 or args.inserts < 0:
        print("repro stats: sample size must be positive, inserts non-negative",
              file=sys.stderr)
        return 2
    instrumentation = run_instrumented_cycle(
        strategy=args.strategy,
        algorithm=args.algorithm,
        sample_size=args.sample_size,
        inserts=args.inserts,
        seed=args.seed,
        trace_inserts=args.trace_inserts,
    )
    if args.format == "json":
        print(
            snapshot_json(instrumentation.registry, instrumentation.tracer),
            end="",
        )
    elif args.format == "prometheus":
        print(prometheus_text(instrumentation.registry), end="")
    elif args.format == "spans":
        write_spans_jsonl(instrumentation.tracer, sys.stdout)
    else:
        _print_summary(instrumentation)
    return 0
