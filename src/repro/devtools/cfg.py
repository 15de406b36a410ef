"""Per-function control-flow graph with dominance.

Ordering rules (BAR001's "barrier *before* commit") need more than "does
this function call ``flush_barrier`` somewhere" -- a barrier inside the
``else`` branch does not protect a commit in the ``if`` branch.  The CFG
gives rules the standard vocabulary for this: one node per simple
statement, edges following Python's structured control flow, and the
classic iterative **dominator** computation (Cooper/Harvey/Kennedy-style
on the powerset formulation: ``dom(n) = {n} ∪ ⋂ dom(pred)``) so a rule
can ask "is every path from entry to statement B forced through A?".

Granularity is the *statement*: fine enough to order a flush against a
commit, coarse enough that the graph stays linear in the function size.
``try`` is handled conservatively -- every statement in the ``try`` body
may jump to every handler, so nothing inside a ``try`` dominates the
handlers; ``break``/``continue``/``return``/``raise`` cut fall-through
edges exactly as the interpreter would.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["CFGNode", "FunctionCFG", "build_cfg"]


@dataclass
class CFGNode:
    """One simple statement (or branch header) in the function body."""

    index: int
    stmt: ast.stmt
    succ: set[int] = field(default_factory=set)
    pred: set[int] = field(default_factory=set)

    @property
    def line(self) -> int:
        return self.stmt.lineno


class FunctionCFG:
    """Statement-level CFG plus dominators for one function."""

    def __init__(self, func: ast.AST) -> None:
        self.func = func
        self.nodes: list[CFGNode] = []
        self._exit_targets: list[int] = []
        builder = _Builder(self)
        entries = builder.block(getattr(func, "body", []), loop=None)
        self.entry: int | None = entries[0] if self.nodes else None
        self._doms = self._dominators()

    # -- construction helpers (used by _Builder) -----------------------------

    def _add(self, stmt: ast.stmt) -> int:
        node = CFGNode(index=len(self.nodes), stmt=stmt)
        self.nodes.append(node)
        return node.index

    def _edge(self, src: int, dst: int) -> None:
        self.nodes[src].succ.add(dst)
        self.nodes[dst].pred.add(src)

    # -- queries -------------------------------------------------------------

    def containing(self, inner: ast.AST) -> CFGNode | None:
        """The CFG node whose statement contains *inner* (by position)."""
        best: CFGNode | None = None
        for node in self.nodes:
            stmt = node.stmt
            if not hasattr(inner, "lineno"):
                return None
            end = getattr(stmt, "end_lineno", stmt.lineno)
            if stmt.lineno <= inner.lineno <= end:
                # Prefer the innermost (latest-starting) containing stmt.
                if best is None or stmt.lineno >= best.stmt.lineno:
                    best = node
        return best

    def dominators(self, index: int) -> set[int]:
        """All nodes that dominate ``nodes[index]`` (including itself)."""
        return set(self._doms[index])

    def strictly_dominating(self, index: int) -> list[CFGNode]:
        return [self.nodes[i] for i in sorted(self._doms[index] - {index})]

    def dominates(self, a: int, b: int) -> bool:
        return a in self._doms[b]

    def _dominators(self) -> list[set[int]]:
        n = len(self.nodes)
        if n == 0:
            return []
        entry = self.entry or 0
        everything = set(range(n))
        doms = [everything.copy() for _ in range(n)]
        doms[entry] = {entry}
        changed = True
        while changed:
            changed = False
            for node in self.nodes:
                if node.index == entry:
                    continue
                preds = [doms[p] for p in node.pred]
                new = set.intersection(*preds) if preds else set()
                new = new | {node.index}
                if new != doms[node.index]:
                    doms[node.index] = new
                    changed = True
        # Unreachable nodes keep the full set -- they are dominated by
        # everything vacuously, which is the conservative answer here.
        return doms


class _Builder:
    """Recursive translation of a statement list into CFG edges.

    ``block`` returns the entry node indexes of the list; each call also
    leaves ``self.open`` holding the dangling exits that should flow into
    whatever comes next.
    """

    def __init__(self, cfg: FunctionCFG) -> None:
        self.cfg = cfg
        self.open: list[int] = []

    def block(self, stmts: list[ast.stmt], loop) -> list[int]:
        entries: list[int] = []
        previous_exits: list[int] = []
        first = True
        for stmt in stmts:
            stmt_entries, stmt_exits = self.statement(stmt, loop)
            if not stmt_entries:
                continue
            if first:
                entries = stmt_entries
                first = False
            else:
                for src in previous_exits:
                    for dst in stmt_entries:
                        self.cfg._edge(src, dst)
            previous_exits = stmt_exits
            if not stmt_exits:
                break  # unconditional jump: the rest is unreachable
        self.open = previous_exits
        return entries

    def statement(self, stmt: ast.stmt, loop) -> tuple[list[int], list[int]]:
        cfg = self.cfg
        index = cfg._add(stmt)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            cfg._exit_targets.append(index)
            return [index], []
        if isinstance(stmt, ast.Break):
            if loop is not None:
                loop["breaks"].append(index)
            return [index], []
        if isinstance(stmt, ast.Continue):
            if loop is not None:
                loop["continues"].append(index)
            return [index], []
        if isinstance(stmt, ast.If):
            body_entries = self.block(stmt.body, loop)
            body_exits = self.open
            for entry in body_entries:
                cfg._edge(index, entry)
            if stmt.orelse:
                else_entries = self.block(stmt.orelse, loop)
                else_exits = self.open
                for entry in else_entries:
                    cfg._edge(index, entry)
                return [index], body_exits + else_exits
            return [index], body_exits + [index]
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            inner = {"breaks": [], "continues": []}
            body_entries = self.block(stmt.body, inner)
            body_exits = self.open
            for entry in body_entries:
                cfg._edge(index, entry)
            for src in body_exits + inner["continues"]:
                cfg._edge(src, index)  # back edge
            exits = [index] + inner["breaks"]
            if stmt.orelse:
                else_entries = self.block(stmt.orelse, loop)
                else_exits = self.open
                for entry in else_entries:
                    cfg._edge(index, entry)
                exits = inner["breaks"] + else_exits
            return [index], exits
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            body_entries = self.block(stmt.body, loop)
            body_exits = self.open
            for entry in body_entries:
                cfg._edge(index, entry)
            return [index], body_exits
        if isinstance(stmt, ast.Try):
            body_entries = self.block(stmt.body, loop)
            body_exits = self.open
            body_nodes = [
                n.index
                for n in cfg.nodes
                if any(n.stmt is s for s in ast.walk(stmt))
                and n.index != index
            ]
            for entry in body_entries:
                cfg._edge(index, entry)
            exits = list(body_exits)
            for handler in stmt.handlers:
                handler_entries = self.block(handler.body, loop)
                handler_exits = self.open
                # Conservatively: the handler is reachable from the try
                # header and from any statement in the try body (a raise
                # may interrupt a statement before it completes, so body
                # statements must not dominate anything past the try).
                sources = [index] + body_nodes
                for src in sources:
                    for entry in handler_entries:
                        cfg._edge(src, entry)
                exits.extend(handler_exits)
            if stmt.orelse:
                else_entries = self.block(stmt.orelse, loop)
                else_exits = self.open
                for src in body_exits:
                    for entry in else_entries:
                        cfg._edge(src, entry)
                exits = [e for e in exits if e not in body_exits] + else_exits
            if stmt.finalbody:
                final_entries = self.block(stmt.finalbody, loop)
                final_exits = self.open
                for src in exits:
                    for entry in final_entries:
                        cfg._edge(src, entry)
                exits = final_exits
            return [index], exits
        # Simple statement (Expr/Assign/AugAssign/AnnAssign/Assert/
        # Delete/Global/Nonlocal/Import/Pass/nested def/class/...).
        return [index], [index]


def build_cfg(func: ast.AST) -> FunctionCFG:
    """Build the statement CFG (with dominators) for one function node."""
    return FunctionCFG(func)
