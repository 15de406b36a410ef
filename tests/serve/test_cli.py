"""The ``repro serve-sim`` command: exit codes, JSON artifact, determinism."""

import json

from repro.cli import main

ARGS = ["serve-sim", "--seed", "7", "--events", "80", "--samples", "2"]


class TestServeSimCommand:
    def test_exits_zero_and_prints_summary(self, capsys):
        assert main(ARGS) == 0
        out = capsys.readouterr().out
        assert "serve-sim" in out
        assert "queries" in out

    def test_json_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "serve.json"
        assert main(ARGS + ["--json", str(artifact)]) == 0
        capsys.readouterr()
        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert payload["events"] == 80
        assert payload["queries_answered"] > 0
        assert isinstance(payload["trace"], list)

    def test_no_trace_shrinks_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "serve.json"
        assert main(ARGS + ["--json", str(artifact), "--no-trace"]) == 0
        capsys.readouterr()
        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert "trace" not in payload

    def test_same_seed_byte_identical_artifacts(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(ARGS + ["--json", str(first)]) == 0
        assert main(ARGS + ["--json", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_policy_and_admission_flags(self, tmp_path, capsys):
        artifact = tmp_path / "serve.json"
        code = main(
            ARGS
            + [
                "--policy",
                "deadline:128",
                "--max-queue-depth",
                "2",
                "--overload-action",
                "defer",
                "--json",
                str(artifact),
            ]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert payload["policy"] == "deadline"

    def test_listed_in_help(self, capsys):
        try:
            main(["--help"])
        except SystemExit:
            pass
        assert "serve-sim" in capsys.readouterr().out


class TestUsageErrors:
    def test_bad_policy_exits_two(self, capsys):
        assert main(ARGS + ["--policy", "bogus"]) == 2
        assert capsys.readouterr().err.startswith(
            "serve-sim: bad scheduling policy spec 'bogus': unknown scheduling policy"
        )

    def test_bad_kind_exits_two(self, capsys):
        assert main(ARGS + ["--kinds", "bogus"]) == 2
        assert capsys.readouterr().err.startswith(
            "serve-sim: bad sample kind spec 'bogus': unknown sample kind"
        )

    def test_bad_slo_exits_two(self, capsys):
        assert main(ARGS + ["--slo", "nonsense"]) == 2
        assert capsys.readouterr().err.startswith("serve-sim: bad SLO spec")

    def test_kind_algorithm_mismatch_exits_two(self, capsys):
        code = main(ARGS + ["--kinds", "weighted", "--algorithm", "stack"])
        assert code == 2
        assert "kind-capable" in capsys.readouterr().err
