"""Trace-file analysis helpers and the ``repro trace`` subcommand."""

import io
import json

import pytest

from repro.cli import main
from repro.obs.tracefile import (
    SpanNode,
    build_forest,
    chrome_trace_dict,
    critical_path,
    read_spans_jsonl,
    self_times,
)


def _span(span_id, parent_id, name, start, dur, trace_id="t:0"):
    return {
        "span": name,
        "parent": None,
        "span_id": span_id,
        "parent_id": parent_id,
        "trace_id": trace_id,
        "start": start,
        "cost_seconds": dur,
    }


@pytest.fixture
def spans():
    # root(0..10) -> child_a(0..4) -> leaf(1..4), child_b(5..8)
    return [
        _span(3, 2, "leaf", 1.0, 3.0),
        _span(2, 1, "child_a", 0.0, 4.0),
        _span(4, 1, "child_b", 5.0, 3.0),
        _span(1, None, "root", 0.0, 10.0),
    ]


def test_read_spans_jsonl_roundtrip(spans, tmp_path):
    path = tmp_path / "spans.jsonl"
    path.write_text(
        "\n".join(json.dumps(s, sort_keys=True) for s in spans) + "\n\n",
        encoding="utf-8",
    )
    with open(path, encoding="utf-8") as handle:
        loaded = read_spans_jsonl(handle)
    assert loaded == spans


def test_read_spans_jsonl_rejects_garbage():
    with pytest.raises(ValueError, match="line 1"):
        read_spans_jsonl(io.StringIO("not json\n"))
    with pytest.raises(ValueError, match="not a span record"):
        read_spans_jsonl(io.StringIO('{"event": "x"}\n'))


def test_build_forest_links_parents_and_orders_children(spans):
    roots = build_forest(spans)
    assert [r.name for r in roots] == ["root"]
    root = roots[0]
    assert [c.name for c in root.children] == ["child_a", "child_b"]
    assert [c.name for c in root.children[0].children] == ["leaf"]


def test_missing_parent_becomes_root(spans):
    truncated = [s for s in spans if s["span"] != "root"]
    roots = build_forest(truncated)
    assert sorted(r.name for r in roots) == ["child_a", "child_b"]



def _write_spans(path, spans):
    path.write_text(
        "".join(json.dumps(s, sort_keys=True) + "\n" for s in spans),
        encoding="utf-8",
    )
    return str(path)


def test_parent_cycle_is_rejected(tmp_path, capsys):
    # Spans 1 and 2 are each other's parent: no root reaches them, so a
    # forest over this file would drop both from every total.
    cyclic = [
        _span(1, 2, "a", 0.0, 1.0),
        _span(2, 1, "b", 0.0, 1.0),
        _span(3, None, "c", 0.0, 1.0),
    ]
    with pytest.raises(ValueError, match="span_id 1 "):
        build_forest(cyclic)
    assert main(["trace", _write_spans(tmp_path / "cycle.jsonl", cyclic)]) == 2
    assert "span_id 1 " in capsys.readouterr().err


def test_duplicate_span_id_is_rejected(tmp_path, capsys):
    # Two spans share id 1: the child would be counted under one of them
    # and the other span would vanish from the forest.
    duplicated = [
        _span(1, None, "first", 0.0, 2.0),
        _span(1, None, "second", 0.0, 1.0),
        _span(2, 1, "child", 0.0, 0.5),
    ]
    with pytest.raises(ValueError, match="duplicate span_id 1"):
        build_forest(duplicated)
    assert main(["trace", _write_spans(tmp_path / "dup.jsonl", duplicated)]) == 2
    assert "duplicate span_id 1" in capsys.readouterr().err

def test_self_times_subtract_children(spans):
    totals = self_times(build_forest(spans))
    assert totals["root"]["self_seconds"] == pytest.approx(3.0)  # 10 - 4 - 3
    assert totals["child_a"]["self_seconds"] == pytest.approx(1.0)  # 4 - 3
    assert totals["leaf"]["self_seconds"] == pytest.approx(3.0)
    assert totals["root"]["count"] == 1


def test_self_time_subtracts_a_left_to_right_sum():
    # The children add to 0.0 left to right; a compensated sum (builtin
    # ``sum`` from Python 3.12) keeps the 1.0 and would leave 1.0.
    children = [
        SpanNode({"cost_seconds": duration}) for duration in (1e16, 1.0, -1e16)
    ]
    assert SpanNode({"cost_seconds": 2.0}, children).self_time == 2.0


def test_critical_path_follows_max_duration_children(spans):
    root = build_forest(spans)[0]
    assert [n.name for n in critical_path(root)] == ["root", "child_a", "leaf"]


def test_chrome_trace_dict_shape(spans):
    payload = chrome_trace_dict(spans)
    assert payload["displayTimeUnit"] == "ms"
    events = payload["traceEvents"]
    assert len(events) == len(spans)
    root = next(e for e in events if e["name"] == "root")
    assert root["ph"] == "X"
    assert root["ts"] == 0.0
    assert root["dur"] == 10.0 * 1e6
    # All spans share a trace id, hence one lane.
    assert {e["tid"] for e in events} == {1}


# -- the CLI ----------------------------------------------------------------


@pytest.fixture
def spans_file(spans, tmp_path):
    path = tmp_path / "spans.jsonl"
    path.write_text(
        "".join(json.dumps(s, sort_keys=True) + "\n" for s in spans),
        encoding="utf-8",
    )
    return str(path)


def test_trace_cli_summary(spans_file, capsys):
    assert main(["trace", spans_file]) == 0
    out = capsys.readouterr().out
    assert "4 spans, 1 traces" in out
    assert "root" in out and "self=" in out


def test_trace_cli_waterfall(spans_file, capsys):
    assert main(["trace", spans_file, "--query", "t:0"]) == 0
    out = capsys.readouterr().out
    assert "waterfall of trace t:0" in out
    assert "child_b" in out


def test_trace_cli_waterfall_unknown_id(spans_file, capsys):
    assert main(["trace", spans_file, "--query", "nope"]) == 2
    assert "no spans with trace id" in capsys.readouterr().err


def test_trace_cli_critical_path(spans_file, capsys):
    assert main(["trace", spans_file, "--critical-path"]) == 0
    out = capsys.readouterr().out
    assert "critical path" in out
    assert "leaf" in out


def test_trace_cli_chrome_export(spans_file, tmp_path, capsys):
    out_path = tmp_path / "chrome.json"
    assert main(["trace", spans_file, "--format", "chrome", "-o", str(out_path)]) == 0
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert len(payload["traceEvents"]) == 4


def test_trace_cli_missing_file(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "absent.jsonl")]) == 2
    assert "repro trace:" in capsys.readouterr().err


def test_stats_spans_file_matches_table_format(spans_file, capsys):
    assert main(["stats", "--spans-file", spans_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("trace spans (cost-model seconds")
    assert "root" in out
