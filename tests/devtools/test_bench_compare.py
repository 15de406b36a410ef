"""The ``repro bench-compare`` throughput-regression gate."""

import json

import pytest

from repro.cli import main
from repro.devtools.bench_compare import (
    BenchComparison,
    compare_reports,
    load_throughputs,
)


def write_report(path, benches):
    """Minimal pytest-benchmark JSON: [(name, ops, elements_per_sec|None)]."""
    payload = {
        "benchmarks": [
            {
                "name": name,
                "stats": {"ops": ops, "mean": 1.0 / ops},
                "extra_info": (
                    {} if eps is None else {"elements_per_sec": eps}
                ),
            }
            for name, ops, eps in benches
        ]
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestLoadThroughputs:
    def test_prefers_elements_per_sec_over_ops(self, tmp_path):
        report = write_report(
            tmp_path / "r.json",
            [("test_batch", 10.0, 1_000_000.0), ("test_other", 5.0, None)],
        )
        assert load_throughputs(report) == {
            "test_batch": 1_000_000.0,
            "test_other": 5.0,
        }

    def test_rejects_non_benchmark_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"not\": \"a report\"}", encoding="utf-8")
        with pytest.raises(ValueError):
            load_throughputs(bad)


class TestCompareReports:
    def test_gates_only_selected_names(self):
        baseline = {"test_insert_batch": 100.0, "test_insert_scalar": 50.0}
        current = {"test_insert_batch": 90.0, "test_insert_scalar": 10.0}
        gated = compare_reports(baseline, current, select="batch")
        assert [c.name for c in gated] == ["test_insert_batch"]

    def test_change_is_relative(self):
        c = BenchComparison(name="x", baseline=200.0, current=150.0)
        assert c.change == pytest.approx(-0.25)
        assert not c.regressed(0.25)  # boundary: exactly -25% is tolerated
        assert c.regressed(0.249)


class TestCliGate:
    def test_passes_within_threshold(self, tmp_path, capsys):
        base = write_report(
            tmp_path / "base.json", [("test_batch", 1.0, 1_000_000.0)]
        )
        cur = write_report(
            tmp_path / "cur.json", [("test_batch", 1.0, 900_000.0)]
        )
        code = main(
            ["bench-compare", str(cur), "--baseline", str(base)]
        )
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_fails_on_regression(self, tmp_path, capsys):
        base = write_report(
            tmp_path / "base.json", [("test_batch", 1.0, 1_000_000.0)]
        )
        cur = write_report(
            tmp_path / "cur.json", [("test_batch", 1.0, 500_000.0)]
        )
        code = main(["bench-compare", str(cur), "--baseline", str(base)])
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_skips_cleanly_without_baseline(self, tmp_path, capsys):
        cur = write_report(
            tmp_path / "cur.json", [("test_batch", 1.0, 1_000_000.0)]
        )
        code = main(
            [
                "bench-compare",
                str(cur),
                "--baseline",
                str(tmp_path / "missing.json"),
            ]
        )
        assert code == 0
        assert "skipping" in capsys.readouterr().out

    def test_usage_error_on_missing_current(self, tmp_path):
        base = write_report(
            tmp_path / "base.json", [("test_batch", 1.0, 1.0)]
        )
        code = main(
            [
                "bench-compare",
                str(tmp_path / "missing.json"),
                "--baseline",
                str(base),
            ]
        )
        assert code == 2

    def test_usage_error_on_bad_threshold(self, tmp_path):
        base = write_report(tmp_path / "base.json", [("test_batch", 1.0, 1.0)])
        cur = write_report(tmp_path / "cur.json", [("test_batch", 1.0, 1.0)])
        code = main(
            [
                "bench-compare",
                str(cur),
                "--baseline",
                str(base),
                "--threshold",
                "1.5",
            ]
        )
        assert code == 2

    def test_nothing_gated_when_select_matches_nothing(self, tmp_path, capsys):
        base = write_report(tmp_path / "base.json", [("test_scalar", 1.0, 1.0)])
        cur = write_report(tmp_path / "cur.json", [("test_scalar", 1.0, 1.0)])
        code = main(["bench-compare", str(cur), "--baseline", str(base)])
        assert code == 0
        assert "nothing gated" in capsys.readouterr().out

    def test_committed_baseline_parses(self):
        """The baseline shipped in the repo is a valid report with the
        ≥5x batch-over-scalar margin PR 3 claims."""
        from pathlib import Path

        from repro.devtools.bench_compare import DEFAULT_BASELINE

        baseline = Path(__file__).resolve().parents[2] / DEFAULT_BASELINE
        throughputs = load_throughputs(baseline)
        batch = throughputs["test_insert_batch_throughput"]
        scalar = throughputs["test_insert_scalar_throughput"]
        assert batch >= 5 * scalar

    def test_committed_baseline_fleet_margin(self):
        """Fleet ingest over a list of maintainers keeps the same >=5x
        batch-over-scalar margin: each maintainer's skip-based insert_many
        beats the element-major loop over the fleet."""
        from pathlib import Path

        from repro.devtools.bench_compare import DEFAULT_BASELINE

        baseline = Path(__file__).resolve().parents[2] / DEFAULT_BASELINE
        throughputs = load_throughputs(baseline)
        batch = throughputs["test_fleet_ingest_batch_throughput"]
        scalar = throughputs["test_fleet_ingest_scalar_throughput"]
        assert batch >= 5 * scalar
