"""Golden digests: uniform outputs stay byte-identical across commits.

The determinism gates elsewhere compare two runs of the *same* code.
This module pins the bytes themselves: each digest below was recorded
from the command lines in :data:`RUNS` before uniform sampling moved
onto the sample-kind path, and a refactor that claims to change no
uniform behaviour must reproduce every one of them.

If a change alters these bytes on purpose, run each command line with
the ``repro`` CLI, take ``sha256sum`` of its outputs, paste the new
values here, and say in the change description why the bytes moved.
"""

import hashlib

import pytest

from repro.cli import main

#: ``name -> (argv, {output file: sha256})``; ``-`` is standard output.
RUNS = {
    "serve-sim": (
        [
            "serve-sim", "--seed", "7", "--events", "200",
            "--policy", "deadline:128", "--trace", "{out}/trace.jsonl",
            "--slo", "latency:0.2:0.9", "--ts-interval", "1.0",
            "--json", "{out}/serve.json",
        ],
        {
            "serve.json": "c9af61298ce8f33d3a1060deda0d4756dd565579fd3f501db0eb1df8333724a4",
            "trace.jsonl": "6f6e0cd0f209a29ccb2461bba040a8fc940dec6e61b730dfb0eaa4316f02e3dd",
        },
    ),
    "fleet-sim-one-shard": (
        [
            "fleet-sim", "--seed", "7", "--shards", "1", "--samples", "4",
            "--events", "300", "--engine", "full", "--json", "{out}/fleet.json",
        ],
        {
            "fleet.json": "7690f4bad600d48679f30abe23efe0bba4cccb0e7e8e144f9ae4d00dbabed0ab",
        },
    ),
    "dr-drill": (
        ["dr-drill", "--seed", "3", "--out", "{out}/drill"],
        {
            "drill/drill-report.json": "312fe46ac1786ce0c074dfebb6002c834b807c1cf3d664f6f68d037dd059ace5",
            "drill/primary.img": "20ec5eccd566c32f7558e6e487a50c07f71c1dccbc3c4f4f3dea214b94febaea",
            "drill/recovered.img": "20ec5eccd566c32f7558e6e487a50c07f71c1dccbc3c4f4f3dea214b94febaea",
        },
    ),
    "extra-bias": (
        ["run", "extra-bias", "--scale", "smoke", "--format", "json"],
        {
            "-": "a925e1303a87fe25ab1f35fdf1aa4dd640f53a303454fa51c0a1ae30ed8c9ce9",
        },
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_uniform_outputs_match_golden_digests(name, tmp_path, capsys):
    argv, expected = RUNS[name]
    capsys.readouterr()
    assert main([arg.format(out=tmp_path) for arg in argv]) == 0
    stdout = capsys.readouterr().out.encode()
    actual = {
        path: _sha256(stdout if path == "-" else (tmp_path / path).read_bytes())
        for path in expected
    }
    assert actual == expected
