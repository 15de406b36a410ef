"""Project symbol table and call graph (the whole-program analysis engine).

``repro lint``'s original rules are per-file AST checks; the invariants
the paper actually depends on span *calls*: randomness must flow through
one seeded stream wherever the call chain leads (DET001), a superblock
commit must be preceded by a flush barrier even when the barrier lives in
a callee (BAR001), and the serve read path must not mutate device state
through any number of intermediate helpers (SRV001).  This module builds
the shared substrate those rules reason over:

* a **symbol table** of every function, method and class in the linted
  tree, keyed by a stable qualified name ``rel/path.py::Class.method``;
* an **import map** per module so ``from repro.x import y`` / ``import
  repro.x as z`` references resolve to project symbols (including imports
  guarded by ``TYPE_CHECKING`` -- annotations matter here);
* **light type inference** -- parameter/return annotations, attribute
  types assigned in ``__init__``, dataclass field annotations, and
  constructor assignments -- enough to resolve ``self._catalog.get(...)``
  to ``SampleCatalog.get`` instead of guessing by name;
* a **call graph** with virtual dispatch over the project class
  hierarchy: a call through a base type (``self._algorithm.refresh``)
  fans out to every project override.

Everything is AST-based; no project module is imported or executed.  The
graph over-approximates (unresolvable attribute calls fall back to
name-based resolution, minus generic container-method names), which is
the right direction for effect soundness: a spurious edge can at worst
demand a justified suppression, a missing edge would hide a violation.

The build runs once per lint run: :func:`analyze_project` caches the
:class:`ProjectAnalysis` on the :class:`~repro.devtools.runner.ProjectContext`
so every interprocedural rule shares it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.devtools.runner import ModuleContext, ProjectContext

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ProjectAnalysis",
    "analyze_project",
    "GENERIC_ATTRS",
]

#: Attribute names never resolved by bare-name fallback: they collide with
#: builtin container/str methods, so a name-based edge would be noise
#: (``queue.append`` is not ``LogFile.append``).  Typed receivers resolve
#: through the type and are unaffected by this list.
GENERIC_ATTRS = frozenset(
    {
        "add", "append", "clear", "close", "copy", "count", "decode",
        "discard", "encode", "endswith", "extend", "format", "get",
        "index", "insert", "intersection", "issubset", "items", "join",
        "keys", "lower", "lstrip", "open", "partition", "pop", "popleft",
        "read", "remove", "replace", "reverse", "rsplit", "rstrip",
        "setdefault", "sort", "split", "splitlines", "startswith",
        "strip", "title", "union", "update", "upper", "values", "write",
    }
)

#: Constructor names whose module-level result is a module-global RNG.
_RNG_FACTORY_NAMES = frozenset(
    {"RandomSource", "Random", "RandomState", "default_rng", "numpy_generator"}
)
_RNG_FACTORY_DOTTED = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "np.random.default_rng",
        "numpy.random.RandomState",
        "np.random.RandomState",
    }
)


def _walk_excluding_defs(root: ast.AST):
    """Yield descendants of *root*, not descending into nested defs/classes."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class CallSite:
    """One call expression, with its resolved project targets (if any)."""

    line: int
    col: int
    #: called name -- the attribute for ``x.attr()``, the bare name otherwise
    name: str
    #: qualified names of resolved project targets, sorted
    targets: tuple[str, ...]
    #: "direct" (name/import), "typed" (receiver type), "fallback"
    #: (name-based), or "nested" (enclosing function -> nested def)
    kind: str
    #: the Call node (None for synthetic nested-def edges)
    node: ast.Call | None = None


@dataclass
class FunctionInfo:
    """One function or method in the symbol table."""

    qualname: str
    rel_path: str
    name: str
    cls: str | None
    node: ast.AST
    module: "ModuleContext"
    line: int
    col: int
    calls: list[CallSite] = field(default_factory=list)
    #: (global-RNG qualname, line, col) for each module-global RNG read
    rng_global_uses: list[tuple[str, int, int]] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class: methods, resolved bases, inferred attribute types."""

    qualname: str
    rel_path: str
    name: str
    node: ast.ClassDef
    module: "ModuleContext"
    base_quals: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)
    #: attribute name -> class qualname, from annotations and __init__
    attr_types: dict[str, str] = field(default_factory=dict)


class _ModuleInfo:
    """Per-module symbol and import tables (internal)."""

    def __init__(self, ctx: "ModuleContext") -> None:
        self.ctx = ctx
        self.functions: dict[str, str] = {}  # top-level name -> qualname
        self.classes: dict[str, str] = {}  # top-level name -> class qualname
        # alias -> ("module", dotted) | ("symbol", dotted_module, name)
        self.imports: dict[str, tuple] = {}
        self.rng_globals: dict[str, int] = {}  # name -> lineno


class ProjectAnalysis:
    """Symbol table + call graph + (lazily) effects for one lint run."""

    def __init__(self, project: "ProjectContext") -> None:
        self.project = project
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._modules: dict[str, _ModuleInfo] = {}
        self._subclasses: dict[str, set[str]] = {}
        #: module-global RNG bindings: qualname "rel.py::NAME" -> lineno
        self.rng_globals: dict[str, int] = {}
        self._effects: dict[str, frozenset[str]] | None = None
        self._build()

    # -- public views --------------------------------------------------------

    @property
    def effects(self) -> dict[str, frozenset[str]]:
        """Transitive effect set per function (see :mod:`.effects`)."""
        if self._effects is None:
            from repro.devtools.effects import infer_effects

            self._effects = infer_effects(self)
        return self._effects

    def callees(self, qualname: str) -> set[str]:
        info = self.functions.get(qualname)
        if info is None:
            return set()
        return {t for site in info.calls for t in site.targets}

    def callers(self, qualname: str) -> set[str]:
        return {
            caller.qualname
            for caller in self.functions.values()
            if any(qualname in site.targets for site in caller.calls)
        }

    def reachable(
        self, roots: "list[str]", stop: "set[str] | frozenset[str]" = frozenset()
    ) -> set[str]:
        """Transitive callees of *roots*; never traverses into ``stop``."""
        seen: set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            current = stack.pop()
            if current in seen or current in stop:
                continue
            seen.add(current)
            for target in self.callees(current):
                if target not in seen and target not in stop:
                    stack.append(target)
        return seen

    def subclasses(self, class_qual: str) -> set[str]:
        """All transitive project subclasses of *class_qual*."""
        out: set[str] = set()
        stack = [class_qual]
        while stack:
            for sub in self._subclasses.get(stack.pop(), ()):
                if sub not in out:
                    out.add(sub)
                    stack.append(sub)
        return out

    def to_json_dict(self) -> dict:
        """Deterministic JSON view for ``repro lint --dump-graph``."""
        functions = {}
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            functions[qualname] = {
                "path": info.rel_path,
                "line": info.line,
                "effects": sorted(self.effects.get(qualname, frozenset())),
                "calls": sorted({t for s in info.calls for t in s.targets}),
            }
        return {
            "classes": {
                qual: {
                    "bases": sorted(self.classes[qual].base_quals),
                    "methods": sorted(self.classes[qual].methods.values()),
                }
                for qual in sorted(self.classes)
            },
            "functions": functions,
            "rng_globals": {q: self.rng_globals[q] for q in sorted(self.rng_globals)},
        }

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        for ctx in self.project.modules:
            self._collect_module(ctx)
        self._resolve_bases()
        self._infer_attr_types()
        for info in self._modules.values():
            self._collect_calls(info)

    def _collect_module(self, ctx: "ModuleContext") -> None:
        info = _ModuleInfo(ctx)
        self._modules[ctx.rel_path] = info
        self._collect_imports(ctx.tree.body, info)
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(ctx, node, cls=None, prefix="")
                info.functions[node.name] = f"{ctx.rel_path}::{node.name}"
            elif isinstance(node, ast.ClassDef):
                qual = f"{ctx.rel_path}::{node.name}"
                cls = ClassInfo(
                    qualname=qual,
                    rel_path=ctx.rel_path,
                    name=node.name,
                    node=node,
                    module=ctx,
                )
                self.classes[qual] = cls
                info.classes[node.name] = qual
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method_qual = f"{ctx.rel_path}::{node.name}.{item.name}"
                        cls.methods[item.name] = method_qual
                        self._add_function(ctx, item, cls=node.name, prefix="")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._maybe_rng_global(ctx, info, node)

    def _collect_imports(self, body, info: _ModuleInfo) -> None:
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    info.imports[bound] = ("module", target)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                for alias in node.names:
                    info.imports[alias.asname or alias.name] = (
                        "symbol",
                        module,
                        alias.name,
                    )
            elif isinstance(node, ast.If):
                # Imports guarded by TYPE_CHECKING carry the annotations'
                # meaning; resolve through them like unconditional imports.
                test = node.test
                name = test.id if isinstance(test, ast.Name) else (
                    test.attr if isinstance(test, ast.Attribute) else None
                )
                if name == "TYPE_CHECKING":
                    self._collect_imports(node.body, info)

    def _add_function(self, ctx, node, cls: str | None, prefix: str) -> None:
        qual = (
            f"{ctx.rel_path}::{prefix}{cls + '.' if cls else ''}{node.name}"
        )
        self.functions[qual] = FunctionInfo(
            qualname=qual,
            rel_path=ctx.rel_path,
            name=node.name,
            cls=cls,
            node=node,
            module=ctx,
            line=node.lineno,
            col=node.col_offset,
        )

    def _maybe_rng_global(self, ctx, info: _ModuleInfo, node) -> None:
        value = node.value if not isinstance(node, ast.AnnAssign) else node.value
        if not isinstance(value, ast.Call):
            return
        func = value.func
        name = func.id if isinstance(func, ast.Name) else None
        dotted = _dotted(func)
        is_rng = (
            (name is not None and name in _RNG_FACTORY_NAMES)
            or (dotted is not None and dotted in _RNG_FACTORY_DOTTED)
        )
        if not is_rng:
            return
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if isinstance(target, ast.Name):
                qual = f"{ctx.rel_path}::{target.id}"
                info.rng_globals[target.id] = node.lineno
                self.rng_globals[qual] = node.lineno

    # -- name/module resolution ----------------------------------------------

    def _module_rel(self, dotted: str) -> str | None:
        """Map a dotted module name onto a project-relative file, if any."""
        parts = dotted.split(".")
        if parts and parts[0] == "repro":
            parts = parts[1:]
        for candidate in (
            "/".join(parts) + ".py" if parts else "__init__.py",
            "/".join(parts + ["__init__.py"]) if parts else "__init__.py",
        ):
            if candidate in self._modules:
                return candidate
        return None

    def _resolve_name(self, info: _ModuleInfo, name: str):
        """Resolve a bare name to ("func", qual) / ("class", qual) / None."""
        if name in info.functions:
            return ("func", info.functions[name])
        if name in info.classes:
            return ("class", info.classes[name])
        imported = info.imports.get(name)
        if imported is None:
            return None
        if imported[0] == "symbol":
            _, module_dotted, symbol = imported
            rel = self._module_rel(module_dotted)
            if rel is None:
                # ``from repro import core``-style: the symbol may itself
                # be a module.
                rel = self._module_rel(f"{module_dotted}.{symbol}")
                return ("module", rel) if rel is not None else None
            target = self._modules[rel]
            if symbol in target.functions:
                return ("func", target.functions[symbol])
            if symbol in target.classes:
                return ("class", target.classes[symbol])
            if symbol in target.rng_globals:
                return ("rng_global", f"{rel}::{symbol}")
            return None
        rel = self._module_rel(imported[1])
        return ("module", rel) if rel is not None else None

    def _resolve_bases(self) -> None:
        for cls in self.classes.values():
            info = self._modules[cls.rel_path]
            for base in cls.node.bases:
                name = base.id if isinstance(base, ast.Name) else None
                if name is None and isinstance(base, ast.Attribute):
                    name = base.attr
                if name is None:
                    continue
                resolved = self._resolve_name(info, name)
                if resolved is not None and resolved[0] == "class":
                    cls.base_quals.append(resolved[1])
        for cls in self.classes.values():
            for base in cls.base_quals:
                self._subclasses.setdefault(base, set()).add(cls.qualname)

    # -- type inference -------------------------------------------------------

    def _annotation_class(self, info: _ModuleInfo, annotation) -> str | None:
        """The project class a (possibly quoted/Optional) annotation names."""
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
            return self._annotation_class(
                info, annotation.left
            ) or self._annotation_class(info, annotation.right)
        if isinstance(annotation, ast.Subscript):
            value = annotation.value
            name = value.id if isinstance(value, ast.Name) else (
                value.attr if isinstance(value, ast.Attribute) else None
            )
            if name == "Optional":
                return self._annotation_class(info, annotation.slice)
            return None  # list[X]/dict[X] describe containers, not receivers
        if isinstance(annotation, ast.Name):
            resolved = self._resolve_name(info, annotation.id)
        elif isinstance(annotation, ast.Attribute):
            resolved = self._resolve_name(info, annotation.attr)
        else:
            return None
        if resolved is not None and resolved[0] == "class":
            return resolved[1]
        return None

    def _param_types(self, info: _ModuleInfo, node) -> dict[str, str]:
        env: dict[str, str] = {}
        args = node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            cls = self._annotation_class(info, arg.annotation)
            if cls is not None:
                env[arg.arg] = cls
        return env

    def _class_attr_type(self, cls: ClassInfo, attr: str) -> str | None:
        """Attribute/property type on *cls*, walking project bases."""
        seen: set[str] = set()
        stack = [cls.qualname]
        while stack:
            qual = stack.pop(0)
            if qual in seen or qual not in self.classes:
                continue
            seen.add(qual)
            current = self.classes[qual]
            if attr in current.attr_types:
                return current.attr_types[attr]
            method_qual = current.methods.get(attr)
            if method_qual is not None:
                method = self.functions[method_qual]
                if any(
                    isinstance(d, ast.Name) and d.id == "property"
                    for d in getattr(method.node, "decorator_list", ())
                ):
                    return self._annotation_class(
                        self._modules[current.rel_path], method.node.returns
                    )
            stack.extend(current.base_quals)
        return None

    def _expr_type(
        self, expr, env: dict[str, str], info: _ModuleInfo, cls: ClassInfo | None
    ) -> str | None:
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            if expr.id == "self" and cls is not None:
                return cls.qualname
            return None
        if isinstance(expr, ast.Attribute):
            recv = self._expr_type(expr.value, env, info, cls)
            if recv is not None and recv in self.classes:
                return self._class_attr_type(self.classes[recv], expr.attr)
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                resolved = self._resolve_name(info, func.id)
                if resolved is not None and resolved[0] == "class":
                    return resolved[1]
                if resolved is not None and resolved[0] == "func":
                    fn = self.functions[resolved[1]]
                    return self._annotation_class(
                        self._modules[fn.rel_path], fn.node.returns
                    )
                return None
            if isinstance(func, ast.Attribute):
                for target in self._method_targets(func, env, info, cls)[0]:
                    fn = self.functions[target]
                    returned = self._annotation_class(
                        self._modules[fn.rel_path], fn.node.returns
                    )
                    if returned is not None:
                        return returned
            return None
        return None

    def _infer_attr_types(self) -> None:
        for cls in self.classes.values():
            info = self._modules[cls.rel_path]
            for item in cls.node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    attr_cls = self._annotation_class(info, item.annotation)
                    if attr_cls is not None:
                        cls.attr_types[item.target.id] = attr_cls
            for item in cls.node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                env = self._param_types(info, item)
                for stmt in ast.walk(item):
                    target = None
                    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                        target, value = stmt.targets[0], stmt.value
                    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                        target, value = stmt.target, stmt.value
                    else:
                        continue
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    attr_cls = None
                    if isinstance(stmt, ast.AnnAssign):
                        attr_cls = self._annotation_class(info, stmt.annotation)
                    if attr_cls is None:
                        attr_cls = self._expr_type(value, env, info, cls)
                    if attr_cls is not None:
                        cls.attr_types.setdefault(target.attr, attr_cls)

    # -- call resolution ------------------------------------------------------

    def _virtual_targets(self, class_qual: str, attr: str) -> list[str]:
        """Method *attr* on *class_qual*: nearest def plus all overrides."""
        targets: set[str] = set()
        # Nearest definition walking up the bases.
        stack = [class_qual]
        seen: set[str] = set()
        while stack:
            qual = stack.pop(0)
            if qual in seen or qual not in self.classes:
                continue
            seen.add(qual)
            cls = self.classes[qual]
            if attr in cls.methods:
                targets.add(cls.methods[attr])
                break
            stack.extend(cls.base_quals)
        # Every override below the static type (virtual dispatch).
        for sub in self.subclasses(class_qual):
            sub_cls = self.classes.get(sub)
            if sub_cls is not None and attr in sub_cls.methods:
                targets.add(sub_cls.methods[attr])
        return sorted(targets)

    def _method_targets(
        self, func: ast.Attribute, env, info: _ModuleInfo, cls: ClassInfo | None
    ) -> tuple[list[str], str]:
        """Resolve an attribute call; returns (targets, resolution kind)."""
        attr = func.attr
        # Module-alias call: ``mod.func(...)``.
        dotted = _dotted(func.value)
        if dotted is not None and "." not in dotted:
            imported = info.imports.get(dotted)
            if imported is not None and imported[0] == "module":
                rel = self._module_rel(imported[1])
                if rel is not None:
                    target = self._modules[rel]
                    if attr in target.functions:
                        return [target.functions[attr]], "direct"
                    if attr in target.classes:
                        init = self.classes[target.classes[attr]].methods.get(
                            "__init__"
                        )
                        return ([init] if init else []), "direct"
        # Typed receiver (including ``self``).
        recv_type = self._expr_type(func.value, env, info, cls)
        if recv_type is not None and recv_type in self.classes:
            return self._virtual_targets(recv_type, attr), "typed"
        # Name-based fallback over project methods, minus generic names.
        if attr in GENERIC_ATTRS:
            return [], "fallback"
        targets = sorted(
            fn.qualname
            for fn in self.functions.values()
            if fn.name == attr and fn.cls is not None
        )
        return targets, "fallback"

    def _collect_calls(self, info: _ModuleInfo) -> None:
        for fn in list(self.functions.values()):
            if fn.rel_path != info.ctx.rel_path:
                continue
            cls = (
                self.classes.get(f"{fn.rel_path}::{fn.cls}")
                if fn.cls is not None
                else None
            )
            env = self._param_types(info, fn.node)
            self._walk_body(fn, fn.node, env, info, cls)
            self._record_rng_uses(fn, info)

    def _walk_body(self, fn: FunctionInfo, node, env, info, cls) -> None:
        """Visit *fn*'s statements, tracking simple local types in order."""
        for stmt in ast.iter_child_nodes(node):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt is not fn.node:
                # Nested def: its own symbol, assumed callable by the parent.
                nested_qual = f"{fn.qualname}.{stmt.name}"
                if nested_qual not in self.functions:
                    self._add_nested(fn, stmt, nested_qual, info, cls)
                fn.calls.append(
                    CallSite(
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        name=stmt.name,
                        targets=(nested_qual,),
                        kind="nested",
                    )
                )
                continue
            if isinstance(stmt, ast.ClassDef):
                continue
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
                stmt.targets[0], ast.Name
            ):
                inferred = self._expr_type(stmt.value, env, info, cls)
                if inferred is not None:
                    env[stmt.targets[0].id] = inferred
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                inferred = self._annotation_class(info, stmt.annotation)
                if inferred is not None:
                    env[stmt.target.id] = inferred
            for call in self._calls_in(stmt, skip_defs=True):
                self._record_call(fn, call, env, info, cls)
            self._walk_body(fn, stmt, env, info, cls)

    def _add_nested(self, parent: FunctionInfo, node, qual, info, cls) -> None:
        nested = FunctionInfo(
            qualname=qual,
            rel_path=parent.rel_path,
            name=node.name,
            cls=parent.cls,
            node=node,
            module=parent.module,
            line=node.lineno,
            col=node.col_offset,
        )
        self.functions[qual] = nested
        env = self._param_types(info, node)
        self._walk_body(nested, node, env, info, cls)
        self._record_rng_uses(nested, info)

    def _calls_in(self, stmt, skip_defs: bool) -> list[ast.Call]:
        """Call expressions directly inside *stmt* (not in nested defs/stmts)."""
        calls: list[ast.Call] = []
        stack: list[ast.AST] = []
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                continue  # handled by the recursive statement walk
            stack.append(child)
        while stack:
            node = stack.pop()
            if skip_defs and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(node, ast.Call):
                calls.append(node)
            stack.extend(ast.iter_child_nodes(node))
        return calls

    def _record_call(self, fn: FunctionInfo, call: ast.Call, env, info, cls) -> None:
        func = call.func
        if isinstance(func, ast.Name):
            resolved = self._resolve_name(info, func.id)
            targets: list[str] = []
            if resolved is not None and resolved[0] == "func":
                targets = [resolved[1]]
            elif resolved is not None and resolved[0] == "class":
                init = self.classes[resolved[1]].methods.get("__init__")
                targets = [init] if init else []
            elif f"{fn.qualname}.{func.id}" in self.functions:
                targets = [f"{fn.qualname}.{func.id}"]
            fn.calls.append(
                CallSite(
                    line=call.lineno,
                    col=call.col_offset,
                    name=func.id,
                    targets=tuple(targets),
                    kind="direct",
                    node=call,
                )
            )
        elif isinstance(func, ast.Attribute):
            targets, kind = self._method_targets(func, env, info, cls)
            fn.calls.append(
                CallSite(
                    line=call.lineno,
                    col=call.col_offset,
                    name=func.attr,
                    targets=tuple(targets),
                    kind=kind,
                    node=call,
                )
            )

    def _record_rng_uses(self, fn: FunctionInfo, info: _ModuleInfo) -> None:
        """One pass over *fn*'s own body (nested defs excluded) for RNG reads."""
        if not self.rng_globals:
            return
        for sub in _walk_excluding_defs(fn.node):
            qual: str | None = None
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in info.rng_globals:
                    qual = f"{fn.rel_path}::{sub.id}"
                else:
                    resolved = self._resolve_name(info, sub.id)
                    if resolved is not None and resolved[0] == "rng_global":
                        qual = resolved[1]
            elif isinstance(sub, ast.Attribute):
                dotted = _dotted(sub)
                if dotted is not None and dotted.count(".") == 1:
                    alias, attr = dotted.split(".")
                    imported = info.imports.get(alias)
                    if imported is not None and imported[0] == "module":
                        rel = self._module_rel(imported[1])
                        if rel is not None and attr in self._modules[rel].rng_globals:
                            qual = f"{rel}::{attr}"
            if qual is not None and qual in self.rng_globals:
                entry = (qual, sub.lineno, sub.col_offset)
                if entry not in fn.rng_global_uses:
                    fn.rng_global_uses.append(entry)


def analyze_project(project: "ProjectContext") -> ProjectAnalysis:
    """The shared per-run analysis, built on first use and then cached."""
    if getattr(project, "_analysis", None) is None:
        project._analysis = ProjectAnalysis(project)
    return project._analysis  # type: ignore[return-value]
