"""The ``repro fleet-sim`` command: exit codes, JSON artifact, determinism."""

import json

import pytest

from repro.cli import main

ARGS = [
    "fleet-sim", "--seed", "7", "--shards", "3", "--samples", "6",
    "--events", "120", "--fanout", "10",
]


class TestFleetSimCommand:
    def test_exits_zero_and_prints_summary(self, capsys):
        assert main(ARGS) == 0
        out = capsys.readouterr().out
        assert "fleet-sim" in out
        assert "placement" in out
        assert "fan-out" in out

    def test_json_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "fleet.json"
        assert main(ARGS + ["--json", str(artifact)]) == 0
        capsys.readouterr()
        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert payload["config"]["shards"] == 3
        assert payload["fanout"]["queries"] == 10
        assert sorted(payload["shards"]) == ["shard00", "shard01", "shard02"]

    def test_same_seed_byte_identical_artifacts(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(ARGS + ["--json", str(first)]) == 0
        assert main(ARGS + ["--json", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_no_trace_shrinks_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "fleet.json"
        assert main(ARGS + ["--json", str(artifact), "--no-trace"]) == 0
        capsys.readouterr()
        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert all(
            "trace" not in shard for shard in payload["shards"].values()
        )

    def test_quota_and_hedge_flags(self, tmp_path, capsys):
        artifact = tmp_path / "fleet.json"
        args = ARGS + [
            "--quota", "*:reads:10:5", "--hedge", "2.0",
            "--mean-gap", "0.002", "--json", str(artifact),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "quota" in out
        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert payload["quota"]["enabled"] is True
        assert payload["fanout"]["hedge"]["enabled"] is True

    def test_model_engine_flag(self, capsys):
        assert main(ARGS + ["--engine", "model"]) == 0
        assert "model" in capsys.readouterr().out

    def test_bad_quota_spec_fails_cleanly(self, capsys):
        assert main(ARGS + ["--quota", "nonsense"]) == 2
        assert "quota" in capsys.readouterr().err

    def test_bad_quota_names_the_spec(self, capsys):
        assert main(ARGS + ["--quota", "t:reads:1:inf"]) == 2
        assert capsys.readouterr().err.startswith(
            "fleet-sim: bad quota spec 't:reads:1:inf':"
        )

    @pytest.mark.parametrize("width", ["5:2", "0"])
    def test_bad_width_range_exits_two_naming_the_spec(self, width, capsys):
        assert main(ARGS + ["--fanout", "3", "--fanout-width", width]) == 2
        assert capsys.readouterr().err.startswith(
            f"fleet-sim: bad fan-out width spec {width!r}:"
        )

    def test_bad_width_fails_cleanly(self, capsys):
        assert main(ARGS + ["--fanout-width", "banana"]) == 2
        assert "width" in capsys.readouterr().err

    def test_bad_policy_fails_cleanly(self, capsys):
        assert main(ARGS + ["--policy", "bogus"]) == 2
        assert capsys.readouterr().err.startswith(
            "fleet-sim: bad scheduling policy spec 'bogus': unknown scheduling policy"
        )

    def test_bad_kind_fails_cleanly(self, capsys):
        assert main(ARGS + ["--kinds", "bogus"]) == 2
        assert capsys.readouterr().err.startswith(
            "fleet-sim: bad sample kind spec 'bogus': unknown sample kind"
        )
