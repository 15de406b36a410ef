"""IO002: the device layer is reachable only from inside ``repro.storage``.

The storage engine has a strict layering: device -> buffer pool -> file
layer -> consumers (see docs/storage.md).  Everything above the file
layer -- core/refresh algorithms, logs, maintenance, serve, experiments --
must do its I/O through :class:`~repro.storage.files.SampleFile` /
:class:`~repro.storage.files.LogFile` (or through the pool's barrier
helpers), because those are where the paper's charging rules live
(Sec. 6.1 classification, coalescing, the truncate seek).  A raw
``read_block``/``read_blocks``/``write_block`` call above the storage
layer would charge unclassified I/O the cost figures never account for,
and would bypass the buffer pool entirely, splitting the view of a block
between pooled and unpooled readers.

``peek_block``/``poke_block``/``discard``/``discard_from`` are banned at
the same boundary: uncharged device access outside the storage layer is
how accounting bugs hide.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.findings import Finding
from repro.devtools.registry import ModuleRule, register
from repro.devtools.runner import ModuleContext

__all__ = ["DeviceBoundaryRule", "DEVICE_METHODS"]

DEVICE_METHODS = frozenset(
    {
        "read_block",
        "read_blocks",
        "write_block",
        "peek_block",
        "poke_block",
        "discard",
        "discard_from",
    }
)


@register
class DeviceBoundaryRule(ModuleRule):
    id = "IO002"
    title = "block devices may only be touched from repro.storage"
    rationale = (
        "Charging rules and the buffer pool live in the storage layer; "
        "raw block I/O above it bypasses both (docs/storage.md)."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.in_dir("storage"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in DEVICE_METHODS:
                yield Finding(
                    path=ctx.rel_path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule_id=self.id,
                    message=(
                        f"call to '{func.attr}' outside repro.storage: go "
                        "through SampleFile/LogFile or the BufferPool API so "
                        "the paper's charging rules and the page cache apply"
                    ),
                )
