"""Tabular output for regenerated figures.

The paper's figures are line plots; the reproduction prints the same
series as aligned text tables (one row per x value, one column per
algorithm), which is what EXPERIMENTS.md records and what the benchmark
suite echoes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.figures import SeriesResult

__all__ = [
    "format_series_table",
    "format_series_csv",
    "format_series_json",
    "format_value",
]


def format_value(value: float) -> str:
    """Engineering-style compact formatting for cost/size values."""
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1_000_000:
        return f"{value / 1_000_000:.3g}M"
    if magnitude >= 1_000:
        return f"{value / 1_000:.3g}k"
    if magnitude >= 1:
        return f"{value:.3g}"
    return f"{value:.2e}"


def format_series_table(result: "SeriesResult") -> str:
    """Render one figure's series as an aligned text table."""
    names = list(result.series)
    header = [result.x_label] + names
    rows = [header]
    for idx, x in enumerate(result.x):
        row = [format_value(x)]
        for name in names:
            row.append(format_value(result.series[name][idx]))
        rows.append(row)
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    lines = [
        f"{result.figure}: {result.title}"
        + (f"  [scale={result.scale}]" if result.scale else "")
    ]
    if result.notes:
        lines.append(f"  ({result.notes})")
    lines.append(
        "  " + " | ".join(h.rjust(w) for h, w in zip(rows[0], widths))
    )
    lines.append("  " + "-+-".join("-" * w for w in widths))
    for row in rows[1:]:
        lines.append("  " + " | ".join(v.rjust(w) for v, w in zip(row, widths)))
    lines.append(f"  (y: {result.y_label})")
    return "\n".join(lines)


def format_series_csv(result: "SeriesResult") -> str:
    """Render one figure's series as CSV (header row + one row per x)."""
    names = list(result.series)
    lines = [",".join([_csv_escape(result.x_label)] + [_csv_escape(n) for n in names])]
    for idx, x in enumerate(result.x):
        row = [repr(float(x))]
        row.extend(repr(float(result.series[name][idx])) for name in names)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def format_series_json(result: "SeriesResult") -> str:
    """Render one figure's full metadata + series as pretty JSON."""
    import json

    payload = {
        "figure": result.figure,
        "title": result.title,
        "scale": result.scale,
        "x_label": result.x_label,
        "y_label": result.y_label,
        "notes": result.notes,
        "x": [float(v) for v in result.x],
        "series": {
            name: [float(v) for v in values]
            for name, values in result.series.items()
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def _csv_escape(value: str) -> str:
    if any(ch in value for ch in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return value
