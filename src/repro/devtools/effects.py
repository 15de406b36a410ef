"""Effect inference over the project call graph.

Each function gets a **transitive effect set** -- what it may do to the
world, directly or through any chain of project calls:

* ``draws_rng`` -- consumes pseudo-randomness (any call chain bottoming
  out in ``repro.rng``, or an unmanaged ``random``/``numpy.random`` use);
* ``reads_device`` / ``writes_device`` / ``touches_device`` -- block-device
  access (``read_block``/``read_blocks``/``peek_block`` vs
  ``write_block``/``poke_block``/``discard``/``discard_from``);
  ``touches_device`` is the union;
* ``reads_wall_clock`` -- ``time.time``/``monotonic``/``perf_counter``/...;
* ``emits_metric`` -- instrument traffic (``.inc``/``.observe``/``.emit``);
* ``may_flush`` -- reaches a ``flush``/``flush_barrier`` call (the barrier
  primitive BAR001's commit-ordering argument is built on);
* ``may_raise`` -- contains a ``raise`` statement.

Direct effects are syntactic patterns at the call site, so they do not
depend on the call graph resolving the callee: ``self._dev.write_block``
is a device write whatever ``self._dev`` turns out to be.  The transitive
closure then joins callee effects into callers over the resolved edges
until a fixpoint -- the standard bottom-up summary propagation, monotone
on the powerset lattice of effect atoms, so termination is immediate.

Functions defined under ``rng/`` are intrinsically ``draws_rng``: that
package *is* the project's randomness surface, and over-approximating its
helpers keeps the taint analysis sound without executing anything.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.devtools.callgraph import FunctionInfo, ProjectAnalysis

__all__ = [
    "EFFECTS",
    "DEVICE_READ_METHODS",
    "DEVICE_WRITE_METHODS",
    "FLUSH_NAMES",
    "CLOCK_CALLS",
    "METRIC_ATTRS",
    "direct_effects",
    "infer_effects",
]

#: The full effect alphabet, in reporting order.
EFFECTS = (
    "draws_rng",
    "reads_device",
    "writes_device",
    "touches_device",
    "reads_wall_clock",
    "emits_metric",
    "may_flush",
    "may_raise",
)

DEVICE_READ_METHODS = frozenset({"read_block", "read_blocks", "peek_block"})
DEVICE_WRITE_METHODS = frozenset(
    {"write_block", "poke_block", "discard", "discard_from"}
)
FLUSH_NAMES = frozenset({"flush", "flush_barrier"})
METRIC_ATTRS = frozenset({"inc", "observe", "emit"})
CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.thread_time",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
    }
)
#: bare names that, when imported from ``time``, read a wall clock
_CLOCK_SYMBOLS = frozenset(
    {name.split(".", 1)[1] for name in CLOCK_CALLS if name.startswith("time.")}
)


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _walk_own_body(root: ast.AST):
    """Descendants of *root* excluding nested function/class bodies."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def call_effects(call: ast.Call) -> set[str]:
    """Direct effects implied by one call expression's own shape."""
    effects: set[str] = set()
    func = call.func
    if isinstance(func, ast.Attribute):
        attr = func.attr
        if attr in DEVICE_READ_METHODS:
            effects |= {"reads_device", "touches_device"}
        if attr in DEVICE_WRITE_METHODS:
            effects |= {"writes_device", "touches_device"}
        if attr in FLUSH_NAMES:
            effects.add("may_flush")
        if attr in METRIC_ATTRS:
            effects.add("emits_metric")
        dotted = _dotted(func)
        if dotted is not None:
            if dotted in CLOCK_CALLS:
                effects.add("reads_wall_clock")
            parts = dotted.split(".")
            if parts[0] == "random" and len(parts) == 2:
                effects.add("draws_rng")
            if (
                parts[0] in ("np", "numpy")
                and len(parts) >= 3
                and parts[1] == "random"
            ):
                effects.add("draws_rng")
    elif isinstance(func, ast.Name):
        if func.id in FLUSH_NAMES:
            effects.add("may_flush")
    return effects


def direct_effects(fn: "FunctionInfo", analysis: "ProjectAnalysis") -> set[str]:
    """Effects *fn* performs in its own body (no propagation)."""
    effects: set[str] = set()
    if fn.rel_path == "rng" or fn.rel_path.startswith("rng/"):
        effects.add("draws_rng")
    clock_imports = _clock_import_names(fn, analysis)
    for node in _walk_own_body(fn.node):
        if isinstance(node, ast.Raise):
            effects.add("may_raise")
        elif isinstance(node, ast.Call):
            effects |= call_effects(node)
            if isinstance(node.func, ast.Name) and node.func.id in clock_imports:
                effects.add("reads_wall_clock")
    return effects


def _clock_import_names(fn: "FunctionInfo", analysis: "ProjectAnalysis") -> frozenset:
    """Local names bound to stdlib clock functions via ``from time import ...``."""
    names = set()
    for node in fn.module.tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _CLOCK_SYMBOLS:
                    names.add(alias.asname or alias.name)
    return frozenset(names)


def infer_effects(analysis: "ProjectAnalysis") -> dict[str, frozenset[str]]:
    """Transitive effect sets: join callee effects into callers to fixpoint."""
    effects: dict[str, set[str]] = {
        qual: direct_effects(fn, analysis)
        for qual, fn in analysis.functions.items()
    }
    callers: dict[str, set[str]] = {qual: set() for qual in analysis.functions}
    for qual, fn in analysis.functions.items():
        for site in fn.calls:
            for target in site.targets:
                if target in callers:
                    callers[target].add(qual)
    worklist = [qual for qual, eff in effects.items() if eff]
    while worklist:
        current = worklist.pop()
        current_effects = effects[current]
        for caller in callers.get(current, ()):
            before = len(effects[caller])
            effects[caller] |= current_effects
            if len(effects[caller]) != before:
                worklist.append(caller)
    return {qual: frozenset(eff) for qual, eff in effects.items()}
