"""Per-rule fixtures: one known violation and one clean sample per rule,
plus suppression-comment handling."""

import textwrap

import pytest

from repro.devtools import LintRunner, run_lint
from repro.devtools.rules.rng001 import RngDisciplineRule


def make_tree(root, files):
    """Write ``{rel_path: source}`` under *root*, creating parents."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def lint(root, **kwargs):
    return run_lint(root=root, **kwargs)


def ids(findings):
    return [f.rule_id for f in findings]


# ---------------------------------------------------------------------------
# RNG001
# ---------------------------------------------------------------------------


def test_rng001_flags_numpy_and_stdlib_random(tmp_path):
    make_tree(tmp_path, {
        "core/bad.py": """\
            import numpy as np
            rng = np.random.default_rng(0)
        """,
        "experiments/worse.py": """\
            import random
            x = random.random()
        """,
    })
    findings = lint(tmp_path, rules=["RNG001"])
    assert sorted((f.path, f.line) for f in findings) == [
        ("core/bad.py", 2),
        ("experiments/worse.py", 1),
        ("experiments/worse.py", 2),
    ]
    assert all(f.rule_id == "RNG001" for f in findings)


def test_rng001_clean_inside_rng_and_for_type_annotations(tmp_path):
    make_tree(tmp_path, {
        # rng/ owns generator construction by design.
        "rng/source.py": """\
            import numpy as np
            def make(seed):
                return np.random.default_rng(seed)
        """,
        # Type references to numpy.random.Generator are not draws.
        "core/ok.py": """\
            import numpy as np
            def use(rng: np.random.Generator) -> float:
                return rng.random()
        """,
    })
    assert lint(tmp_path, rules=["RNG001"]) == []


def test_rng001_flags_stdlib_draws_in_kind_implementations(tmp_path):
    """A sample kind drawing acceptance keys outside RandomSource would
    silently break the deferred<->eager bit-identity contract; the rule
    catches the draw at the source."""
    make_tree(tmp_path, {
        "core/kinds_bad.py": """\
            import random
            class SloppyWeightedKind:
                def draw(self, element):
                    return (element, random.random())
        """,
        # The discipline: one uniform per record, from the shared source.
        "core/kinds_ok.py": """\
            class WeightedKind:
                def draw(self, element, rng):
                    return (element, rng.random())
        """,
    })
    findings = lint(tmp_path, rules=["RNG001"])
    assert sorted((f.path, f.line) for f in findings) == [
        ("core/kinds_bad.py", 1),
        ("core/kinds_bad.py", 4),
    ]
    assert all(f.rule_id == "RNG001" for f in findings)


def test_rng001_module_allowlist(tmp_path):
    make_tree(tmp_path, {
        "experiments/entry.py": """\
            import numpy as np
            rng = np.random.default_rng(7)
        """,
    })
    allowing = RngDisciplineRule(allowlist=(("experiments/*", "default_rng"),))
    assert LintRunner(root=tmp_path, rules=[allowing]).run() == []
    # The same tree fails under the default (empty) allowlist.
    assert ids(lint(tmp_path, rules=["RNG001"])) == ["RNG001"]


# ---------------------------------------------------------------------------
# IO001
# ---------------------------------------------------------------------------


def test_io001_flags_random_access_in_refresh(tmp_path):
    make_tree(tmp_path, {
        "core/refresh/bad.py": """\
            def refresh(sample, elements):
                for i, e in enumerate(elements):
                    sample.write_random(i, e)
                sample.peek_block(0)
        """,
    })
    findings = lint(tmp_path, rules=["IO001"])
    assert [(f.rule_id, f.line) for f in findings] == [("IO001", 3), ("IO001", 4)]


def test_io001_clean_outside_refresh_and_for_sequential_calls(tmp_path):
    make_tree(tmp_path, {
        # Random access is legal outside core/refresh/.
        "baselines/immediate.py": """\
            def place(sample, slot, e):
                sample.write_random(slot, e)
        """,
        # Sequential I/O inside refresh is exactly what Algs. 1-3 do.
        "core/refresh/good.py": """\
            def refresh(sample, elements):
                writer = sample.open_sequential_writer()
                for e in elements:
                    writer.write(e)
        """,
    })
    assert lint(tmp_path, rules=["IO001"]) == []


# ---------------------------------------------------------------------------
# IO002
# ---------------------------------------------------------------------------


def test_io002_flags_raw_device_calls_outside_storage(tmp_path):
    make_tree(tmp_path, {
        "core/maintenance.py": """\
            def commit(device, data):
                device.write_block(0, data, sequential=False)
                return device.read_block(0, sequential=False)
        """,
        "serve/session.py": """\
            def sneak(device):
                device.poke_block(0, b"x")
                device.discard_from(1)
        """,
    })
    findings = lint(tmp_path, rules=["IO002"])
    assert sorted((f.path, f.line) for f in findings) == [
        ("core/maintenance.py", 2),
        ("core/maintenance.py", 3),
        ("serve/session.py", 2),
        ("serve/session.py", 3),
    ]
    assert all(f.rule_id == "IO002" for f in findings)


def test_io002_flags_block_run_reads_outside_storage(tmp_path):
    make_tree(tmp_path, {
        "analysis/scan.py": """\
            def scan(device, blocks):
                return device.read_blocks(0, blocks, True)
        """,
        "storage/files.py": """\
            def scan(device, blocks):
                return device.read_blocks(0, blocks, True)
        """,
    })
    findings = lint(tmp_path, rules=["IO002"])
    assert [(f.path, f.line, f.rule_id) for f in findings] == [
        ("analysis/scan.py", 2, "IO002"),
    ]
    assert "'read_blocks'" in findings[0].message


def test_io002_clean_inside_storage_and_for_file_layer_api(tmp_path):
    make_tree(tmp_path, {
        # The storage layer is where raw device access belongs.
        "storage/files.py": """\
            def charge(device, block, data):
                device.write_block(block, data, sequential=True)
                return device.read_block(block, sequential=True)
        """,
        # Consumers using the file layer and the barrier helpers are clean.
        "core/refresh/good.py": """\
            from repro.storage import flush_barrier
            def refresh(sample, log):
                values = log.scan_all()
                sample.write_sequential(enumerate(values))
                flush_barrier(sample.device)
        """,
    })
    assert lint(tmp_path, rules=["IO002"]) == []


def test_io002_suppression_comment(tmp_path):
    make_tree(tmp_path, {
        "obs/probe.py": """\
            def inspect(device):
                return device.peek_block(0)  # repro-lint: disable=IO002 debug probe
        """,
    })
    assert lint(tmp_path, rules=["IO002"]) == []


# ---------------------------------------------------------------------------
# TIME001
# ---------------------------------------------------------------------------


def test_time001_flags_wall_clocks_in_accounted_paths(tmp_path):
    make_tree(tmp_path, {
        "storage/dev.py": """\
            import time
            started = time.perf_counter()
        """,
        "core/maint.py": """\
            from time import monotonic
        """,
    })
    findings = lint(tmp_path, rules=["TIME001"])
    assert sorted((f.path, f.line) for f in findings) == [
        ("core/maint.py", 1),
        ("storage/dev.py", 2),
    ]


def test_time001_clean_in_cost_model_and_experiments(tmp_path):
    make_tree(tmp_path, {
        # The cost model is the sanctioned owner of timing.
        "storage/cost_model.py": """\
            import time
            def stamp():
                return time.perf_counter()
        """,
        # Experiments measure wall time legitimately (not cost-accounted).
        "experiments/bench.py": """\
            import time
            t = time.perf_counter()
        """,
    })
    assert lint(tmp_path, rules=["TIME001"]) == []


# ---------------------------------------------------------------------------
# FLT001
# ---------------------------------------------------------------------------


def test_flt001_flags_float_literal_equality(tmp_path):
    make_tree(tmp_path, {
        "core/math.py": """\
            def degenerate(p):
                exact = p == 1.0
                negated = p != -0.5
                return exact or negated
        """,
    })
    findings = lint(tmp_path, rules=["FLT001"])
    assert [(f.rule_id, f.line) for f in findings] == [("FLT001", 2), ("FLT001", 3)]


def test_flt001_flags_key_literal_equality_in_kinds(tmp_path):
    """A-ES keys are floats; comparing one to a literal is the classic
    acceptance-test bug.  Comparing two float *variables* (key against
    the stale threshold) is the legitimate idiom and stays clean."""
    make_tree(tmp_path, {
        "core/kinds_bad.py": """\
            def degenerate(record):
                return record[1] == 0.5
        """,
        "core/kinds_ok.py": """\
            def accept(key, threshold):
                return key < threshold or key == threshold
        """,
    })
    findings = lint(tmp_path, rules=["FLT001"])
    assert [(f.path, f.line) for f in findings] == [("core/kinds_bad.py", 2)]


def test_flt001_clean_for_ints_and_outside_scope(tmp_path):
    make_tree(tmp_path, {
        "core/math.py": """\
            def empty(n):
                return n == 0
        """,
        # experiments/ is out of FLT001's core+rng scope.
        "experiments/plot.py": """\
            def same(x):
                return x == 1.0
        """,
    })
    assert lint(tmp_path, rules=["FLT001"]) == []


# ---------------------------------------------------------------------------
# ARG001
# ---------------------------------------------------------------------------


def test_arg001_flags_mutable_defaults(tmp_path):
    make_tree(tmp_path, {
        "dbms/api.py": """\
            def insert(rows=[]):
                return rows
            def tag(*, labels={}):
                return labels
        """,
    })
    findings = lint(tmp_path, rules=["ARG001"])
    assert [(f.rule_id, f.line) for f in findings] == [("ARG001", 1), ("ARG001", 3)]


def test_arg001_clean_for_none_and_immutable_defaults(tmp_path):
    make_tree(tmp_path, {
        "dbms/api.py": """\
            def insert(rows=None, limit=10, name="s"):
                return rows or []
        """,
    })
    assert lint(tmp_path, rules=["ARG001"]) == []


# ---------------------------------------------------------------------------
# API001
# ---------------------------------------------------------------------------


def test_api001_flags_root_export_missing_from_submodule_all(tmp_path):
    make_tree(tmp_path, {
        "__init__.py": """\
            from repro.core import Sampler
            __all__ = ["Sampler"]
        """,
        "core/__init__.py": """\
            class Sampler: pass
            __all__ = []
        """,
    })
    findings = lint(tmp_path, rules=["API001"])
    assert ids(findings) == ["API001"]
    assert "Sampler" in findings[0].message


def test_api001_clean_when_alls_agree(tmp_path):
    make_tree(tmp_path, {
        "__init__.py": """\
            from repro.core import Sampler
            __version__ = "1.0"
            __all__ = ["__version__", "Sampler"]
        """,
        "core/__init__.py": """\
            class Sampler: pass
            __all__ = ["Sampler"]
        """,
    })
    assert lint(tmp_path, rules=["API001"]) == []


# ---------------------------------------------------------------------------
# OBS001
# ---------------------------------------------------------------------------

CATALOGUE = """\
    INSTRUMENTS = {
        "maintenance.inserts": ("counter", "inserts"),
        "refresh.cost_seconds": ("histogram", "seconds"),
    }
"""


def test_obs001_flags_undeclared_and_malformed_names(tmp_path):
    make_tree(tmp_path, {
        "obs/catalogue.py": CATALOGUE,
        "core/maint.py": """\
            def wire(instr):
                instr.counter("maintenance.inserts").inc()
                instr.counter("maintenance.oops").inc()
                instr.gauge("BadName").set(1)
        """,
    })
    findings = lint(tmp_path, rules=["OBS001"])
    assert [(f.rule_id, f.line) for f in findings] == [
        ("OBS001", 3), ("OBS001", 4),
    ]
    assert "not declared" in findings[0].message
    assert "lowercase dotted" in findings[1].message


def test_obs001_clean_for_declared_names_and_runtime_built_names(tmp_path):
    make_tree(tmp_path, {
        "obs/catalogue.py": CATALOGUE,
        "core/maint.py": """\
            def wire(instr, dynamic):
                instr.counter("maintenance.inserts").inc()
                instr.histogram("refresh.cost_seconds").observe(0.1)
                instr.counter(dynamic).inc()  # runtime name: registry's job
        """,
    })
    assert lint(tmp_path, rules=["OBS001"]) == []


def test_obs001_without_catalogue_checks_only_name_shape(tmp_path):
    make_tree(tmp_path, {
        "core/maint.py": """\
            def wire(instr):
                instr.counter("anything.goes").inc()
                instr.gauge("but not this").set(1)
        """,
    })
    findings = lint(tmp_path, rules=["OBS001"])
    assert [(f.rule_id, f.line) for f in findings] == [("OBS001", 3)]


SERVE_CATALOGUE = """\
    INSTRUMENTS = {
        "serve.queries": ("counter", "queries"),
        "serve.query_latency_seconds": ("histogram", "seconds"),
        "serve.queue_depth": ("gauge", "queries"),
    }
"""


def test_obs001_covers_serve_instruments(tmp_path):
    """Emit sites in a serve/ package obey the same catalogue discipline."""
    make_tree(tmp_path, {
        "obs/catalogue.py": SERVE_CATALOGUE,
        "serve/scheduler.py": """\
            def wire(instr):
                instr.counter("serve.queries").inc()
                instr.histogram("serve.query_latency_seconds").observe(0.2)
                instr.gauge("serve.queue_depth").set(3)
        """,
    })
    assert lint(tmp_path, rules=["OBS001"]) == []


def test_obs001_flags_undeclared_serve_instrument(tmp_path):
    make_tree(tmp_path, {
        "obs/catalogue.py": SERVE_CATALOGUE,
        "serve/admission.py": """\
            def wire(instr):
                instr.counter("serve.rejections").inc()
        """,
    })
    findings = lint(tmp_path, rules=["OBS001"])
    assert [(f.rule_id, f.line) for f in findings] == [("OBS001", 2)]
    assert "serve.rejections" in findings[0].message


def test_obs001_real_serve_package_is_clean():
    """Every serve.* instrument the real package emits is declared in the
    real catalogue -- the fixture tests above are not a toy guarantee."""
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    findings = [
        f
        for f in lint(src, rules=["OBS001"])
        if "serve" in str(getattr(f, "path", ""))
    ]
    assert findings == []


SPAN_CATALOGUE = """\
    INSTRUMENTS = {
        "serve.queries": ("counter", "queries"),
    }
    SPANS = {
        "serve.event": "one scheduler event",
        "session.read": "one staleness-aware read",
        "storage.device.read": "one charged block read",
    }
"""


def test_obs001_flags_undeclared_span_names(tmp_path):
    make_tree(tmp_path, {
        "obs/catalogue.py": SPAN_CATALOGUE,
        "serve/scheduler.py": """\
            from repro.obs.api import maybe_span
            def wire(obs, instr):
                with obs.span("serve.event", seq=1):
                    pass
                with obs.span("serve.bogus"):
                    pass
                with maybe_span(instr, "session.read"):
                    pass
                with maybe_span(instr, "session.bogus"):
                    pass
        """,
    })
    findings = lint(tmp_path, rules=["OBS001"])
    assert [(f.rule_id, f.line) for f in findings] == [
        ("OBS001", 5), ("OBS001", 9),
    ]
    assert "serve.bogus" in findings[0].message
    assert "SPANS" in findings[0].message
    assert "session.bogus" in findings[1].message


def test_obs001_span_discipline_covers_storage(tmp_path):
    make_tree(tmp_path, {
        "obs/catalogue.py": SPAN_CATALOGUE,
        "storage/block_device.py": """\
            def read(instr):
                with instr.span("storage.device.read", block=0):
                    pass
                with instr.span("storage.device.bogus"):
                    pass
        """,
    })
    findings = lint(tmp_path, rules=["OBS001"])
    assert [(f.rule_id, f.line) for f in findings] == [("OBS001", 4)]
    assert "storage.device.bogus" in findings[0].message


FLEET_CATALOGUE = """\
    INSTRUMENTS = {
        "fleet.quota_shed": ("counter", "sheds"),
        "fleet.fanout_queries": ("counter", "queries"),
    }
    SPANS = {
        "fleet.place": "consistent-hash placement",
        "fleet.fanout": "one fan-out merge",
    }
"""


def test_obs001_span_discipline_covers_fleet(tmp_path):
    """fleet/ emit sites obey the span catalogue like serve/ and storage/."""
    make_tree(tmp_path, {
        "obs/catalogue.py": FLEET_CATALOGUE,
        "fleet/router.py": """\
            def route(instr):
                with instr.span("fleet.place", shards=4):
                    pass
                with instr.span("fleet.rogue_span"):
                    pass
        """,
    })
    findings = lint(tmp_path, rules=["OBS001"])
    assert [(f.rule_id, f.line) for f in findings] == [("OBS001", 4)]
    assert "fleet.rogue_span" in findings[0].message
    assert "SPANS" in findings[0].message


def test_obs001_covers_fleet_instruments(tmp_path):
    make_tree(tmp_path, {
        "obs/catalogue.py": FLEET_CATALOGUE,
        "fleet/quota.py": """\
            def wire(instr):
                instr.counter("fleet.quota_shed").inc()
                instr.counter("fleet.quota_invented").inc()
        """,
    })
    findings = lint(tmp_path, rules=["OBS001"])
    assert [(f.rule_id, f.line) for f in findings] == [("OBS001", 3)]
    assert "fleet.quota_invented" in findings[0].message


def test_obs001_real_fleet_package_is_clean():
    """Every fleet.* instrument and span the real package emits is
    declared in the real catalogue."""
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    findings = [
        f
        for f in lint(src, rules=["OBS001"])
        if "fleet" in str(getattr(f, "path", ""))
    ]
    assert findings == []


def test_obs001_span_discipline_exempts_core_modules(tmp_path):
    # Core span names ("insert", "refresh", ...) predate the catalogue's
    # dotted convention; only serve/ and storage/ emit sites are checked.
    make_tree(tmp_path, {
        "obs/catalogue.py": SPAN_CATALOGUE,
        "core/maintenance.py": """\
            def run(instr):
                with instr.span("insert"):
                    pass
        """,
    })
    assert lint(tmp_path, rules=["OBS001"]) == []


def test_obs001_span_runtime_names_are_exempt(tmp_path):
    make_tree(tmp_path, {
        "obs/catalogue.py": SPAN_CATALOGUE,
        "serve/scheduler.py": """\
            def wire(obs, name):
                with obs.span(name):
                    pass
        """,
    })
    assert lint(tmp_path, rules=["OBS001"]) == []


def test_obs001_real_span_sites_are_clean():
    """Every span the real serve/ and storage/ packages open is declared
    in the real SPANS catalogue."""
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    findings = [f for f in lint(src, rules=["OBS001"]) if "span name" in f.message]
    assert findings == []


def test_obs001_ignores_the_catalogue_module_itself(tmp_path):
    make_tree(tmp_path, {
        # A hypothetical helper inside the catalogue module would not be
        # an emit site; the rule skips the catalogue file entirely.
        "obs/catalogue.py": CATALOGUE + """\
    def helper(instr):
        instr.counter("not.in.catalogue")
""",
    })
    assert lint(tmp_path, rules=["OBS001"]) == []


# ---------------------------------------------------------------------------
# Suppression comments
# ---------------------------------------------------------------------------


def test_per_line_suppression_silences_only_that_line(tmp_path):
    make_tree(tmp_path, {
        "core/refresh/naive.py": """\
            def refresh(sample, e):
                sample.write_random(0, e)  # repro-lint: disable=IO001
                sample.write_random(1, e)
        """,
    })
    findings = lint(tmp_path, rules=["IO001"])
    assert [(f.rule_id, f.line) for f in findings] == [("IO001", 3)]


def test_per_line_suppression_is_rule_specific(tmp_path):
    make_tree(tmp_path, {
        "core/refresh/naive.py": """\
            def refresh(sample, e):
                sample.write_random(0, e)  # repro-lint: disable=RNG001
        """,
    })
    # A suppression for a different rule does not hide the IO001 finding.
    assert ids(lint(tmp_path, rules=["IO001"])) == ["IO001"]


def test_file_wide_suppression(tmp_path):
    make_tree(tmp_path, {
        "storage/calibrate.py": """\
            # Calibration measures real hardware by design.
            # repro-lint: disable-file=TIME001
            import time
            t0 = time.perf_counter()
            t1 = time.monotonic()
        """,
    })
    assert lint(tmp_path, rules=["TIME001"]) == []


def test_disable_all_on_one_line(tmp_path):
    make_tree(tmp_path, {
        "core/refresh/x.py": """\
            def f(sample, e):
                sample.poke_block(0)  # repro-lint: disable=all
        """,
    })
    assert lint(tmp_path, rules=["IO001"]) == []


# ---------------------------------------------------------------------------
# Framework behaviour
# ---------------------------------------------------------------------------


def test_unparseable_file_reports_e000(tmp_path):
    make_tree(tmp_path, {"core/broken.py": "def f(:\n"})
    findings = lint(tmp_path)
    assert [f.rule_id for f in findings] == ["E000"]
    assert findings[0].path == "core/broken.py"


def test_unknown_rule_id_raises(tmp_path):
    with pytest.raises(KeyError, match="NOPE"):
        lint(tmp_path, rules=["NOPE"])


def test_findings_are_sorted_by_location(tmp_path):
    make_tree(tmp_path, {
        "core/refresh/z.py": """\
            def f(sample, e):
                sample.write_random(0, e)
        """,
        "core/a.py": """\
            def g(x=[]):
                return x == 0.5
        """,
    })
    findings = lint(tmp_path)
    assert [(f.path, f.line) for f in findings] == [
        ("core/a.py", 1),
        ("core/a.py", 2),
        ("core/refresh/z.py", 2),
    ]


# ---------------------------------------------------------------------------
# DET001 (interprocedural RNG taint)
# ---------------------------------------------------------------------------


def test_det001_flags_module_global_rng_in_scope(tmp_path):
    make_tree(tmp_path, {
        "core/bad.py": """\
            from repro.rng.source import RandomSource
            _shared = RandomSource(42)
            def pick(items):
                return items[_shared.next_int(len(items))]
        """,
    })
    findings = lint(tmp_path, rules=["DET001"])
    # The binding itself, and the function that reads it.
    assert [(f.rule_id, f.line) for f in findings] == [
        ("DET001", 2), ("DET001", 4),
    ]
    assert "_shared" in findings[1].message


def test_det001_interprocedural_taint_across_packages(tmp_path):
    """The global lives OUTSIDE the scoped dirs; core/ reaches it only
    through a call chain -- exactly what per-file rules cannot see."""
    make_tree(tmp_path, {
        "experiments/helpers.py": """\
            from random import Random
            _rng = Random(7)
            def jitter():
                return _rng.random()
        """,
        "core/uses.py": """\
            from repro.experiments.helpers import jitter
            def decide():
                return jitter() < 0.5
        """,
    })
    findings = lint(tmp_path, rules=["DET001"])
    assert [(f.path, f.rule_id, f.line) for f in findings] == [
        ("core/uses.py", "DET001", 3),
    ]
    assert "jitter" in findings[0].message
    assert "experiments/helpers.py::_rng" in findings[0].message


def test_det001_clean_for_local_rng_and_out_of_scope_globals(tmp_path):
    make_tree(tmp_path, {
        # Function-local construction from an explicit seed is the blessed
        # pattern.
        "serve/sim.py": """\
            from random import Random
            def simulate(seed):
                rng = Random(seed)
                return rng.random()
        """,
        # A module-global in experiments/ used only by experiments/ never
        # enters the deterministic packages.
        "experiments/noise.py": """\
            from random import Random
            _rng = Random(1)
            def sample():
                return _rng.random()
        """,
    })
    assert lint(tmp_path, rules=["DET001"]) == []


# ---------------------------------------------------------------------------
# BAR001 (flush barrier dominates superblock commit)
# ---------------------------------------------------------------------------

_STORE = """\
    from repro.storage.device import flush_barrier
    class DualSlotCheckpointStore:
        def save(self, state):
            self._device.write_block(0, state, sequential=False)
            flush_barrier(self._device)
"""


def test_bar001_flags_commit_without_barrier(tmp_path):
    make_tree(tmp_path, {
        "storage/superblock.py": _STORE,
        "core/maint.py": """\
            def checkpoint(store, device, state):
                device.write_block(1, state, sequential=True)
                return store.save(state)
        """,
    })
    findings = lint(tmp_path, rules=["BAR001"])
    assert [(f.path, f.rule_id, f.line) for f in findings] == [
        ("core/maint.py", "BAR001", 3),
    ]
    assert "not dominated by a flush" in findings[0].message


def test_bar001_branch_local_flush_does_not_dominate(tmp_path):
    make_tree(tmp_path, {
        "storage/superblock.py": _STORE,
        "core/maint.py": """\
            from repro.storage.device import flush_barrier
            def checkpoint(store, device, state, fast):
                if fast:
                    flush_barrier(device)
                return store.save(state)
        """,
    })
    # The flush runs on only one path; the commit is not protected.
    assert ids(lint(tmp_path, rules=["BAR001"])) == ["BAR001"]


def test_bar001_clean_with_dominating_flush(tmp_path):
    make_tree(tmp_path, {
        "storage/superblock.py": _STORE,
        "core/maint.py": """\
            from repro.storage.device import flush_barrier
            def checkpoint(store, device, state):
                flush_barrier(device)
                return store.save(state)
        """,
    })
    assert lint(tmp_path, rules=["BAR001"]) == []


def test_bar001_interprocedural_flush_through_callee(tmp_path):
    """The barrier lives two calls deep (checkpoint_state ->
    _flush_devices -> flush_barrier) and is evaluated in the commit
    statement's argument position -- only transitive effects see it."""
    make_tree(tmp_path, {
        "storage/superblock.py": _STORE,
        "core/maint.py": """\
            from repro.storage.device import flush_barrier
            from repro.storage.superblock import DualSlotCheckpointStore

            class Maintainer:
                def _flush_devices(self):
                    flush_barrier(self._device)

                def checkpoint_state(self):
                    self._flush_devices()
                    return b"state"

                def commit(self, store: DualSlotCheckpointStore):
                    store.save(self.checkpoint_state())
        """,
    })
    assert lint(tmp_path, rules=["BAR001"]) == []


def test_bar001_interprocedural_non_flushing_helper_still_flagged(tmp_path):
    make_tree(tmp_path, {
        "storage/superblock.py": _STORE,
        "core/maint.py": """\
            from repro.storage.superblock import DualSlotCheckpointStore

            class Maintainer:
                def serialize(self):
                    return b"state"

                def commit(self, store: DualSlotCheckpointStore):
                    store.save(self.serialize())
        """,
    })
    findings = lint(tmp_path, rules=["BAR001"])
    assert [(f.rule_id, f.line) for f in findings] == [("BAR001", 8)]


# ---------------------------------------------------------------------------
# BAR002 (group commit barrier dominates checkpoint commits and seals)
# ---------------------------------------------------------------------------

_GROUP = """\
    from repro.storage.device import flush_barrier
    class GroupCommitBarrier:
        def commit(self):
            for device in self._devices:
                flush_barrier(device)
"""


def test_bar002_per_device_flush_is_not_a_group_commit(tmp_path):
    """A plain flush satisfies BAR001 but not BAR002: the checkpoint
    commits outside the multi-device barrier the replica ships from."""
    make_tree(tmp_path, {
        "storage/superblock.py": _STORE,
        "storage/group_commit.py": _GROUP,
        "core/maint.py": """\
            from repro.storage.device import flush_barrier
            def checkpoint(store, device, state):
                flush_barrier(device)
                return store.save(state)
        """,
    })
    assert lint(tmp_path, rules=["BAR001"]) == []
    findings = lint(tmp_path, rules=["BAR002"])
    assert [(f.path, f.rule_id, f.line) for f in findings] == [
        ("core/maint.py", "BAR002", 4),
    ]
    assert "group commit barrier" in findings[0].message


def test_bar002_clean_with_dominating_group_commit(tmp_path):
    make_tree(tmp_path, {
        "storage/superblock.py": _STORE,
        "storage/group_commit.py": _GROUP,
        "core/maint.py": """\
            from repro.storage.group_commit import GroupCommitBarrier
            def checkpoint(store, group: GroupCommitBarrier, state):
                group.commit()
                return store.save(state)
        """,
    })
    assert lint(tmp_path, rules=["BAR002"]) == []


def test_bar002_group_commit_reached_through_callee(tmp_path):
    """The barrier is two calls deep and evaluated in the commit
    statement's argument position -- the callers-closure over
    ``GroupCommitBarrier.commit`` sees it where direct targets do not."""
    make_tree(tmp_path, {
        "storage/superblock.py": _STORE,
        "storage/group_commit.py": _GROUP,
        "core/maint.py": """\
            from repro.storage.group_commit import GroupCommitBarrier
            from repro.storage.superblock import DualSlotCheckpointStore

            class Maintainer:
                _group: GroupCommitBarrier

                def _flush_devices(self):
                    self._group.commit()

                def checkpoint_state(self):
                    self._flush_devices()
                    return b"state"

                def checkpoint(self, store: DualSlotCheckpointStore):
                    store.save(self.checkpoint_state())
        """,
    })
    assert lint(tmp_path, rules=["BAR002"]) == []


def test_bar002_branch_local_group_commit_does_not_dominate(tmp_path):
    make_tree(tmp_path, {
        "storage/superblock.py": _STORE,
        "storage/group_commit.py": _GROUP,
        "core/maint.py": """\
            from repro.storage.group_commit import GroupCommitBarrier
            def checkpoint(store, group: GroupCommitBarrier, state, fast):
                if fast:
                    group.commit()
                return store.save(state)
        """,
    })
    assert ids(lint(tmp_path, rules=["BAR002"])) == ["BAR002"]


def test_bar002_seal_before_flush_flagged(tmp_path):
    """Sealing the replication batch before the flush phase would ship
    block records that are not yet durable on the primary."""
    make_tree(tmp_path, {
        "storage/group_commit.py": """\
            from repro.storage.device import flush_barrier
            class GroupCommitBarrier:
                def commit(self):
                    if self._link is not None:
                        self._link.seal(self._pending)
                    for device in self._devices:
                        flush_barrier(device)
        """,
    })
    findings = lint(tmp_path, rules=["BAR002"])
    assert [(f.path, f.rule_id, f.line) for f in findings] == [
        ("storage/group_commit.py", "BAR002", 5),
    ]
    assert "already durable" in findings[0].message


def test_bar002_seal_after_flush_phase_clean(tmp_path):
    """The shipped shape: a separate flush-phase statement strictly
    dominates the seal, flushing transitively through the helper."""
    make_tree(tmp_path, {
        "storage/group_commit.py": """\
            from repro.storage.device import flush_barrier
            class GroupCommitBarrier:
                def commit(self):
                    self._flush_all()
                    if self._link is not None:
                        self._link.seal(self._pending)

                def _flush_all(self):
                    for device in self._devices:
                        flush_barrier(device)
        """,
    })
    assert lint(tmp_path, rules=["BAR002"]) == []


# ---------------------------------------------------------------------------
# SRV001 (no device writes on the serve read path)
# ---------------------------------------------------------------------------


def test_srv001_flags_write_in_entry_point(tmp_path):
    make_tree(tmp_path, {
        "serve/session.py": """\
            class QuerySession:
                def drop(self, device):
                    device.discard(0)
        """,
    })
    findings = lint(tmp_path, rules=["SRV001"])
    assert [(f.rule_id, f.line) for f in findings] == [("SRV001", 2)]
    assert "drop" in findings[0].message


def test_srv001_interprocedural_write_through_helper(tmp_path):
    """The write hides in a helper the session only reaches through the
    call graph; the helper's own file looks innocent to per-file rules."""
    make_tree(tmp_path, {
        "serve/cache.py": """\
            def evict(device):
                device.poke_block(0, b"x")
        """,
        "serve/session.py": """\
            from repro.serve.cache import evict
            class QuerySession:
                def execute(self, device, q):
                    evict(device)
                    return q
        """,
    })
    findings = lint(tmp_path, rules=["SRV001"])
    assert [(f.path, f.rule_id, f.line) for f in findings] == [
        ("serve/cache.py", "SRV001", 1),
    ]
    assert "reached through the call graph" in findings[0].message


def test_srv001_clean_reads_and_refresh_surface(tmp_path):
    make_tree(tmp_path, {
        "serve/session.py": """\
            class Maintainer:
                def refresh(self, device):
                    device.write_block(0, b"d", sequential=True)

            class QuerySession:
                def execute(self, m: Maintainer, device):
                    m.refresh(device)
                    return device.read_block(0, sequential=True)
        """,
    })
    # Writes behind the refresh surface are the sanctioned hand-off;
    # the session's own reads are fine.
    assert lint(tmp_path, rules=["SRV001"]) == []


def test_srv001_ignores_private_methods_as_roots(tmp_path):
    make_tree(tmp_path, {
        "serve/session.py": """\
            class QuerySession:
                def _rebuild(self, device):
                    device.poke_block(0, b"x")
        """,
    })
    # A private method is not an entry point, and nothing public reaches it.
    assert lint(tmp_path, rules=["SRV001"]) == []


# ---------------------------------------------------------------------------
# META001 (unused suppressions)
# ---------------------------------------------------------------------------


def test_meta001_flags_suppression_that_matches_nothing(tmp_path):
    make_tree(tmp_path, {
        "core/clean.py": """\
            def f(sample, e):
                return e  # repro-lint: disable=IO001
        """,
    })
    findings = lint(tmp_path, rules=["IO001", "META001"])
    assert [(f.rule_id, f.line) for f in findings] == [("META001", 2)]
    assert "IO001" in findings[0].message


def test_meta001_silent_when_suppression_is_used(tmp_path):
    make_tree(tmp_path, {
        "core/refresh/naive.py": """\
            def refresh(sample, e):
                sample.write_random(0, e)  # repro-lint: disable=IO001
        """,
    })
    assert lint(tmp_path, rules=["IO001", "META001"]) == []


def test_meta001_only_judges_rules_that_ran(tmp_path):
    make_tree(tmp_path, {
        "core/clean.py": """\
            def f():
                return 1  # repro-lint: disable=TIME001
        """,
    })
    # TIME001 did not run, so the directive's fate is unknown: no finding.
    assert lint(tmp_path, rules=["ARG001", "META001"]) == []
    # Under a run that includes TIME001 the directive is provably unused.
    assert ids(lint(tmp_path, rules=["TIME001", "META001"])) == ["META001"]


def test_meta001_not_emitted_unless_selected(tmp_path):
    make_tree(tmp_path, {
        "core/clean.py": """\
            def f():
                return 1  # repro-lint: disable=IO001
        """,
    })
    assert lint(tmp_path, rules=["IO001"]) == []


def test_meta001_disable_all_judged_only_under_full_suite(tmp_path):
    make_tree(tmp_path, {
        "core/clean.py": """\
            def f():
                return 1  # repro-lint: disable=all
        """,
    })
    # A partial run cannot prove an ``all`` directive unused.
    assert lint(tmp_path, rules=["IO001", "META001"]) == []
    # The full default suite can.
    findings = lint(tmp_path)
    assert ids(findings) == ["META001"]
