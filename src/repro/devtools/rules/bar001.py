"""BAR001: every superblock commit must be dominated by a flush barrier.

The dual-slot checkpoint protocol (docs/storage.md, paper Sec. 6.2's
recovery discussion) is only atomic if the *data* a checkpoint describes
is durable before the superblock that points at it: flush sample/log
devices, then write the superblock, then flush again.  The second flush
lives inside ``DualSlotCheckpointStore.save`` itself; the *first* one is
the caller's job, and skipping it silently yields a superblock that can
reference unwritten blocks after a crash -- the recovery test only fails
when the crash actually lands in the window.

The rule finds every call site whose resolved target is a checkpoint
``save`` (any class named ``*CheckpointStore*``) and demands a flush on
every path leading to it, in dominance terms: some statement that
*strictly dominates* the commit statement -- or an expression evaluated
within the commit statement itself, e.g. ``store.save(m.checkpoint_state())``
-- must carry the ``may_flush`` effect, directly or through its callees.
A flush in only one branch of an ``if``, or after the commit, does not
dominate it and is correctly rejected.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.findings import Finding
from repro.devtools.registry import ProjectRule, register
from repro.devtools.runner import ProjectContext

__all__ = ["CommitBarrierRule"]


def _calls_under(node: ast.AST) -> Iterator[ast.Call]:
    """Call expressions in *node*'s own expressions.

    Nested statements are excluded on purpose: they are separate CFG
    nodes, so a flush inside an ``if`` *body* must not be credited to the
    ``if`` header when the header is what dominates the commit.  For
    compound statements this leaves exactly the parts evaluated
    unconditionally: the ``if``/``while`` test, the ``for`` iterable, the
    ``with`` context expressions.
    """
    stack: list[ast.AST] = [
        child
        for child in ast.iter_child_nodes(node)
        if not isinstance(child, ast.stmt)
    ]
    while stack:
        current = stack.pop()
        if isinstance(
            current,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            continue
        if isinstance(current, ast.Call):
            yield current
        stack.extend(ast.iter_child_nodes(current))


@register
class CommitBarrierRule(ProjectRule):
    id = "BAR001"
    title = "superblock commit not dominated by a flush barrier"
    rationale = (
        "Dual-slot recovery (docs/storage.md) assumes checkpointed data "
        "is durable before the superblock references it; a commit path "
        "without a dominating flush can survive every test and still "
        "lose the sample on a crash in the write-back window."
    )

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        from repro.devtools.callgraph import analyze_project
        from repro.devtools.cfg import build_cfg
        from repro.devtools.effects import call_effects

        analysis = analyze_project(ctx)
        commit_roots = {
            qual
            for qual, fn in analysis.functions.items()
            if fn.name == "save"
            and fn.cls is not None
            and "CheckpointStore" in fn.cls
        }
        if not commit_roots:
            return
        effects = analysis.effects

        def call_flushes(call: ast.Call, site_index: dict) -> bool:
            if "may_flush" in call_effects(call):
                return True
            site = site_index.get(id(call))
            if site is None:
                return False
            return any("may_flush" in effects.get(t, ()) for t in site.targets)

        for fn_qual in sorted(analysis.functions):
            fn = analysis.functions[fn_qual]
            if fn_qual in commit_roots:
                continue  # the root supplies its own trailing barrier
            commit_sites = [
                site
                for site in fn.calls
                if site.node is not None and set(site.targets) & commit_roots
            ]
            if not commit_sites:
                continue
            cfg = build_cfg(fn.node)
            site_index = {
                id(site.node): site for site in fn.calls if site.node is not None
            }
            for site in commit_sites:
                commit_node = cfg.containing(site.node)
                covered = False
                if commit_node is not None:
                    # The commit statement itself: any *other* call it
                    # evaluates (argument position) that flushes counts --
                    # it runs before the commit by evaluation order.
                    for call in _calls_under(commit_node.stmt):
                        if call is site.node:
                            continue
                        if call_flushes(call, site_index):
                            covered = True
                            break
                    if not covered:
                        for dom in cfg.strictly_dominating(commit_node.index):
                            if any(
                                call_flushes(call, site_index)
                                for call in _calls_under(dom.stmt)
                            ):
                                covered = True
                                break
                if not covered:
                    yield Finding(
                        path=fn.rel_path,
                        line=site.line,
                        col=site.col,
                        rule_id=self.id,
                        message=(
                            f"checkpoint commit '{site.name}' in "
                            f"'{fn.name}' is not dominated by a flush "
                            "barrier: flush the sample/log devices on "
                            "every path before writing the superblock"
                        ),
                    )
