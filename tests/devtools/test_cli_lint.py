"""CLI coverage for ``repro lint`` (text/JSON formats, --rules filter)."""

import json
import textwrap

from repro.cli import main

VIOLATING_TREE = {
    "core/refresh/bad.py": """\
        def refresh(sample, e):
            sample.write_random(0, e)
    """,
    "experiments/entry.py": """\
        import numpy as np
        rng = np.random.default_rng(0)
    """,
}


def write_tree(root, files=VIOLATING_TREE):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def test_lint_clean_tree_exits_zero(capsys):
    # No --root: lints the installed repro package, which must be clean.
    assert main(["lint"]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_lint_violations_exit_nonzero_with_rule_file_line(tmp_path, capsys):
    write_tree(tmp_path)
    assert main(["lint", "--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "core/refresh/bad.py:2:" in out and "IO001" in out
    assert "experiments/entry.py:2:" in out and "RNG001" in out
    assert "2 findings" in out


def test_lint_format_json(tmp_path, capsys):
    write_tree(tmp_path)
    assert main(["lint", "--root", str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert {f["rule"] for f in payload["findings"]} == {"IO001", "RNG001"}
    finding = next(f for f in payload["findings"] if f["rule"] == "IO001")
    assert finding["path"] == "core/refresh/bad.py"
    assert finding["line"] == 2
    # The JSON report also carries the rule metadata that ran.
    assert {r["id"] for r in payload["rules"]} >= {"IO001", "RNG001"}


def test_lint_rules_filter(tmp_path, capsys):
    write_tree(tmp_path)
    assert main(["lint", "--root", str(tmp_path), "--rules", "IO001"]) == 1
    out = capsys.readouterr().out
    assert "IO001" in out and "RNG001" not in out

    # Filtering to a rule nothing violates exits clean.
    assert main(["lint", "--root", str(tmp_path), "--rules", "ARG001"]) == 0


def test_lint_unknown_rule_is_usage_error(tmp_path, capsys):
    assert main(["lint", "--root", str(tmp_path), "--rules", "NOPE"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_lint_missing_path_is_usage_error(tmp_path, capsys):
    # A typo'd path must not silently report a clean tree.
    missing = tmp_path / "does-not-exist"
    assert main(["lint", "--root", str(tmp_path), str(missing)]) == 2
    assert "no such file or directory" in capsys.readouterr().err


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RNG001", "IO001", "TIME001", "FLT001", "ARG001", "API001"):
        assert rule_id in out


def test_lint_explicit_paths_limit_scope(tmp_path, capsys):
    write_tree(tmp_path)
    target = tmp_path / "experiments"
    assert main(["lint", "--root", str(tmp_path), str(target)]) == 1
    out = capsys.readouterr().out
    assert "RNG001" in out and "IO001" not in out


# ---------------------------------------------------------------------------
# --format sarif
# ---------------------------------------------------------------------------


def test_lint_format_sarif(tmp_path, capsys):
    write_tree(tmp_path)
    assert main(["lint", "--root", str(tmp_path), "--format", "sarif"]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in log["$schema"]
    results = log["runs"][0]["results"]
    assert {r["ruleId"] for r in results} == {"IO001", "RNG001"}
    uris = {
        r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
        for r in results
    }
    assert uris == {"core/refresh/bad.py", "experiments/entry.py"}


def test_lint_sarif_clean_tree_exits_zero(tmp_path, capsys):
    write_tree(tmp_path, {"core/ok.py": "x = 1\n"})
    assert main(["lint", "--root", str(tmp_path), "--format", "sarif"]) == 0
    log = json.loads(capsys.readouterr().out)
    assert log["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# --baseline / --write-baseline
# ---------------------------------------------------------------------------


def test_write_baseline_then_gate_is_green(tmp_path, capsys):
    write_tree(tmp_path)
    baseline = tmp_path / "lint_baseline.json"
    assert main([
        "lint", "--root", str(tmp_path), "--write-baseline", str(baseline),
    ]) == 0
    assert "wrote baseline with 2 findings" in capsys.readouterr().out
    # The identical tree gates clean against its own baseline...
    assert main([
        "lint", "--root", str(tmp_path), "--baseline", str(baseline),
    ]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_baseline_gates_only_new_findings(tmp_path, capsys):
    write_tree(tmp_path)
    baseline = tmp_path / "lint_baseline.json"
    assert main([
        "lint", "--root", str(tmp_path), "--write-baseline", str(baseline),
    ]) == 0
    capsys.readouterr()
    # A new violation appears: only it is reported.
    (tmp_path / "dbms").mkdir()
    (tmp_path / "dbms" / "api.py").write_text("def f(rows=[]):\n    return rows\n")
    assert main([
        "lint", "--root", str(tmp_path), "--baseline", str(baseline),
    ]) == 1
    out = capsys.readouterr().out
    assert "ARG001" in out
    assert "IO001" not in out and "RNG001" not in out


def test_unreadable_baseline_is_usage_error(tmp_path, capsys):
    write_tree(tmp_path, {"core/ok.py": "x = 1\n"})
    bad = tmp_path / "nope.json"
    assert main([
        "lint", "--root", str(tmp_path), "--baseline", str(bad),
    ]) == 2
    assert "cannot use baseline" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# --dump-graph
# ---------------------------------------------------------------------------

GRAPH_TREE = {
    "storage/dev.py": """\
        def flush_barrier(device):
            device.flush()
    """,
    "core/maint.py": """\
        from repro.storage.dev import flush_barrier

        class Maintainer:
            def refresh(self, device):
                flush_barrier(device)
    """,
}


def test_dump_graph_emits_deterministic_known_edges(tmp_path, capsys):
    write_tree(tmp_path, GRAPH_TREE)
    assert main(["lint", "--root", str(tmp_path), "--dump-graph"]) == 0
    first = capsys.readouterr().out
    assert main(["lint", "--root", str(tmp_path), "--dump-graph"]) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical across runs
    graph = json.loads(first)
    refresh = graph["functions"]["core/maint.py::Maintainer.refresh"]
    assert refresh["calls"] == ["storage/dev.py::flush_barrier"]
    assert "may_flush" in refresh["effects"]
    assert "core/maint.py::Maintainer" in graph["classes"]


def test_dump_graph_on_real_tree_has_issue_contract_edges(capsys):
    """The two load-bearing facts the ISSUE pins: the maintainer's
    refresh flushes, and the session's read path does not write."""
    assert main(["lint", "--dump-graph"]) == 0
    graph = json.loads(capsys.readouterr().out)
    refresh = graph["functions"][
        "core/maintenance.py::SampleMaintainer.refresh"
    ]
    assert "may_flush" in refresh["effects"]
    scan = graph["functions"]["storage/files.py::SampleFile.scan"]
    assert "writes_device" not in scan["effects"]
    assert "reads_device" in scan["effects"]
    scan_records = graph["functions"]["storage/files.py::SampleFile.scan_records"]
    assert "reads_device" in scan_records["effects"]
    assert "writes_device" not in scan_records["effects"]
    # The traced wrapper delegates to _execute, which owns the refresh edge.
    execute = graph["functions"]["serve/session.py::QuerySession.execute"]
    assert "serve/session.py::QuerySession._execute" in execute["calls"]
    inner = graph["functions"]["serve/session.py::QuerySession._execute"]
    assert "core/maintenance.py::SampleMaintainer.refresh" in inner["calls"]


def test_dump_graph_includes_parse_diagnostics(tmp_path, capsys):
    write_tree(tmp_path, {"core/ok.py": "x = 1\n", "core/bad.py": "def f(:\n"})
    assert main(["lint", "--root", str(tmp_path), "--dump-graph"]) == 0
    graph = json.loads(capsys.readouterr().out)
    assert [d["rule"] for d in graph["diagnostics"]] == ["E000"]
