"""Golden digests: uniform outputs stay byte-identical across commits.

The determinism gates elsewhere compare two runs of the *same* code.
This module pins the bytes themselves: each digest below was recorded
from the command lines in :data:`RUNS` before uniform sampling moved
onto the sample-kind path, and a refactor that claims to change no
uniform behaviour must reproduce every one of them.

If a change alters these bytes on purpose, run each command line with
the ``repro`` CLI, take ``sha256sum`` of its outputs, paste the new
values here, and say in the change description why the bytes moved.

The bytes must not depend on the interpreter either.  Python 3.12 made
the builtin ``sum`` over floats compensated, so every run is repeated
with ``sum`` in each ``repro`` module replaced by a twin of 3.12's
(:func:`compensated_sum`) and by a plain left-to-right twin of 3.11's
(:func:`plain_sum`); both must give the recorded digests.
"""

import hashlib
import importlib
import math
import pkgutil
import random
import sys

import pytest

import repro
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
    # An 8-frame pool under 16-block samples: misses, dirty evictions
    # and write-backs on the read path.  With a trace the pool and the
    # device read block by block; without one, scans read runs.  Both
    # must give the same report.
    "serve-sim-pooled-misses": (
        [
            "serve-sim", "--seed", "7", "--events", "300", "--sample-size", "2048",
            "--pool-capacity", "8", "--algorithm", "stack",
            "--trace", "{out}/trace.jsonl", "--json", "{out}/serve.json",
        ],
        {
            "serve.json": "f8f94cfd9d958f7a6ff36417d5c36d70d2040f9970de73e6f84ebecbd42f4391",
            "trace.jsonl": "989a656f6a1e7654a4ac6dcdc94495cac68f5441d479ada523353d93fcbac0a9",
        },
    ),
    "serve-sim-pooled-misses-untraced": (
        [
            "serve-sim", "--seed", "7", "--events", "300", "--sample-size", "2048",
            "--pool-capacity", "8", "--algorithm", "stack",
            "--json", "{out}/serve.json",
        ],
        {
            "serve.json": "f8f94cfd9d958f7a6ff36417d5c36d70d2040f9970de73e6f84ebecbd42f4391",
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
    "fleet-sim-four-shards-full": (
        [
            "fleet-sim", "--seed", "7", "--shards", "4", "--samples", "16",
            "--events", "500", "--fanout", "40", "--quota", "*:reads:50:100",
            "--hedge", "2.0", "--kinds", "weighted:5,window",
            "--algorithm", "array", "--engine", "full",
            "--json", "{out}/fleet.json",
        ],
        {
            "fleet.json": "99cc824be94a2f3547cf10a934d529c42946a9c16d86e921b6fac47d7bb64795",
        },
    ),
    "fleet-sim-model": (
        [
            "fleet-sim", "--seed", "5", "--shards", "16", "--samples", "2000",
            "--events", "100000", "--fanout", "2000", "--mean-gap", "0.002",
            "--quota", "*:reads:50:100", "--hedge", "2.0", "--engine", "model",
            "--json", "{out}/fleet.json",
        ],
        {
            "fleet.json": "7eb64cdd08d3ed10574c4cc33fc7afbabc50e5e78fc351d7f26d6f7c1f77d84b",
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


def _digests(name, tmp_path, capsys):
    argv, expected = RUNS[name]
    capsys.readouterr()
    assert main([arg.format(out=tmp_path) for arg in argv]) == 0
    stdout = capsys.readouterr().out.encode()
    return {
        path: _sha256(stdout if path == "-" else (tmp_path / path).read_bytes())
        for path in expected
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_uniform_outputs_match_golden_digests(name, tmp_path, capsys):
    assert _digests(name, tmp_path, capsys) == RUNS[name][1]


def plain_sum(iterable, /, start=0):
    """The builtin ``sum`` up to Python 3.11: ``start + a + b + ...``,
    each addition rounded."""
    result = start
    for item in iterable:
        result = result + item
    return result


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` of Python 3.12 and later, step for step.

    Exact ints add as ints.  Once the total is a ``float``, further
    ``float`` items add with Neumaier's compensation and small ints
    plainly; the compensation joins the total at the end, or at the
    first other item, after which every item adds plainly.
    """
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(result) is not int:
                break
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                step = total + item
                if abs(total) >= abs(item):
                    compensation += (total - step) + item
                else:
                    compensation += (item - step) + total
                total = step
            elif isinstance(item, int) and -(2**63) <= item < 2**63:
                total += float(item)
            else:
                if compensation and math.isfinite(compensation):
                    total += compensation
                result = total + item
                break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


def test_compensated_sum_is_the_312_builtin():
    assert plain_sum([1e16, 1.0, -1e16]) == 0.0
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert compensated_sum([0.1] * 10) == 1.0 != plain_sum([0.1] * 10)
    assert math.copysign(1.0, compensated_sum([-0.0])) == 1.0
    assert compensated_sum([1, 2, 3]) == 6 and type(compensated_sum([1, 2])) is int
    assert compensated_sum([[1], [2]], []) == [1, 2]
    if sys.version_info >= (3, 12):
        rng = random.Random(12)
        for _ in range(200):
            values = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20)
                      for _ in range(rng.randint(0, 40))]
            assert compensated_sum(values) == sum(values)


@pytest.mark.parametrize("twin", [compensated_sum, plain_sum], ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_digests_do_not_depend_on_the_builtin_sum(
    name, twin, tmp_path, capsys, monkeypatch
):
    # Import every module first, so none loaded later keeps the builtin.
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    for module_name, module in list(sys.modules.items()):
        if module_name == "repro" or module_name.startswith("repro."):
            monkeypatch.setattr(module, "sum", twin, raising=False)
    assert _digests(name, tmp_path, capsys) == RUNS[name][1]
