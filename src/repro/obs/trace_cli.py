"""The ``repro trace`` subcommand: inspect exported span files.

Reads a spans JSONL file (``repro serve-sim --trace``) and answers the
questions an end-of-run aggregate cannot: where did one query's
cost-clock time actually go?

* default -- summary: span/trace counts plus the top-K span names by
  total **self time** (duration minus children, i.e. cost attributable
  to the span itself rather than what it called);
* ``--query TRACE_ID`` -- per-request waterfall: the parent-linked span
  tree of one trace id, indented, with offsets relative to its root;
* ``--critical-path`` -- the chain of maximum-duration spans from root
  to leaf (of the slowest root, or of ``--query``'s root);
* ``--format chrome`` -- Chrome trace-event JSON for Perfetto.

Self-contained on the pattern of :mod:`repro.obs.cli`: the main CLI
calls :func:`add_trace_parser` at build time and
:func:`run_trace_command` on dispatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.timeseries import left_to_right_sum
from repro.obs.tracefile import (
    SpanNode,
    build_forest,
    chrome_trace_dict,
    critical_path,
    read_spans_jsonl,
    self_times,
)

__all__ = ["add_trace_parser", "run_trace_command"]


def add_trace_parser(sub: argparse._SubParsersAction) -> argparse.ArgumentParser:
    parser = sub.add_parser(
        "trace",
        help="analyse an exported spans JSONL file (waterfall, critical path)",
        description=(
            "Reconstruct per-request span trees from a spans JSONL file "
            "(serve-sim --trace) and report self-time rankings, per-query "
            "waterfalls, critical paths, or a Perfetto-viewable Chrome "
            "trace. See docs/observability.md."
        ),
    )
    parser.add_argument("spans", help="spans JSONL file to analyse")
    parser.add_argument(
        "--query",
        metavar="TRACE_ID",
        default=None,
        help="show the waterfall of one trace id (e.g. 00000007:000012)",
    )
    parser.add_argument(
        "--critical-path",
        action="store_true",
        help="show the maximum-duration root-to-leaf chain",
    )
    parser.add_argument(
        "--top", type=int, default=10, help="rows in the self-time ranking"
    )
    parser.add_argument(
        "--format",
        default="text",
        choices=("text", "chrome"),
        help="text = human-readable, chrome = Chrome trace-event JSON",
    )
    parser.add_argument(
        "--output",
        "-o",
        metavar="PATH",
        default=None,
        help="write chrome output to PATH instead of stdout",
    )
    return parser


def _print_waterfall(node: SpanNode, origin: float, depth: int = 0) -> None:
    offset = node.start - origin
    print(
        f"  {'  ' * depth}{node.name:<24} +{offset:>11.6f}s  "
        f"dur={node.duration:>11.6f}s  self={node.self_time:>11.6f}s"
    )
    for child in node.children:
        _print_waterfall(child, origin, depth + 1)


def _print_critical_path(root: SpanNode) -> None:
    path = critical_path(root)
    print(
        f"critical path of trace {root.trace_id or '-'} "
        f"({root.duration:.6f}s total):"
    )
    for node in path:
        share = node.duration / root.duration if root.duration > 0 else 0.0
        print(
            f"  {node.name:<24} dur={node.duration:>11.6f}s "
            f"({share:>6.1%})  self={node.self_time:>11.6f}s"
        )


def run_trace_command(args: argparse.Namespace) -> int:
    try:
        with open(args.spans, "r", encoding="utf-8") as handle:
            spans = read_spans_jsonl(handle)
        roots = build_forest(spans)
    except (OSError, ValueError) as exc:
        print(f"repro trace: {args.spans}: {exc}", file=sys.stderr)
        return 2
    if not spans:
        print(f"repro trace: {args.spans}: no spans", file=sys.stderr)
        return 2

    if args.format == "chrome":
        payload = json.dumps(chrome_trace_dict(spans), sort_keys=True)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"chrome trace written to {args.output} (open in Perfetto)")
        else:
            print(payload)
        return 0

    if args.query is not None:
        selected = [r for r in roots if r.trace_id == args.query]
        if not selected:
            known = sorted({r.trace_id for r in roots if r.trace_id})
            hint = f"; ids look like {known[0]}" if known else ""
            print(
                f"repro trace: no spans with trace id {args.query!r}{hint}",
                file=sys.stderr,
            )
            return 2
        if args.critical_path:
            for root in selected:
                _print_critical_path(root)
            return 0
        origin = selected[0].start
        print(f"waterfall of trace {args.query} ({len(selected)} root span(s)):")
        for root in selected:
            _print_waterfall(root, origin)
        return 0

    if args.critical_path:
        slowest = max(roots, key=lambda r: (r.duration, -r.span_id))
        _print_critical_path(slowest)
        return 0

    traces = {s.get("trace_id") for s in spans if s.get("trace_id") is not None}
    totals = self_times(roots)
    grand_self = left_to_right_sum(
        entry["self_seconds"] for entry in totals.values()
    )
    print(
        f"{len(spans)} spans, {len(traces)} traces, "
        f"{len(totals)} span names, {grand_self:.6f}s total self time"
    )
    print(f"top {args.top} span names by total self time:")
    width = max(len(name) for name in totals)
    ranked = sorted(
        totals.items(), key=lambda item: (-item[1]["self_seconds"], item[0])
    )
    for name, entry in ranked[: args.top]:
        share = entry["self_seconds"] / grand_self if grand_self > 0 else 0.0
        print(
            f"  {name:<{width}}  count={int(entry['count']):>6}  "
            f"self={entry['self_seconds']:>11.6f}s ({share:>6.1%})  "
            f"total={entry['cost_seconds']:>11.6f}s"
        )
    return 0
