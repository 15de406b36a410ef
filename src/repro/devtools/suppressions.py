"""Suppression-comment parsing.

Two forms are recognised, mirroring the usual linter conventions:

* ``# repro-lint: disable=RULE1,RULE2`` as a trailing comment silences the
  listed rules on that physical line only;
* ``# repro-lint: disable-file=RULE1,RULE2`` on a comment-only line
  silences the listed rules for the whole file (conventionally placed near
  the top, next to a comment justifying the exemption).

``all`` is accepted in place of a rule list.  Suppressions are parsed
textually (not from the AST) so they also apply to findings on lines the
parser attributes to a different node of a multi-line statement.

Every directive records which rules it actually silenced during a run, so
the runner can report *unused* suppressions (META001): a directive that
suppressed nothing is either stale (the violation was fixed) or a typo
(wrong rule id, wrong line) -- both worth surfacing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = ["Directive", "SuppressionIndex", "parse_suppressions"]

_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


@dataclass
class Directive:
    """One ``repro-lint`` comment, with usage tracking for META001."""

    line: int
    col: int
    kind: str  # "disable" | "disable-file"
    rules: frozenset[str]
    #: rule ids this directive actually silenced during the current run
    used: set[str] = field(default_factory=set)

    @property
    def matched(self) -> bool:
        return bool(self.used)


@dataclass
class SuppressionIndex:
    """Parsed suppression directives for one file."""

    directives: list[Directive] = field(default_factory=list)

    def _applicable(self, rule_id: str, line: int) -> "list[Directive]":
        hits = []
        for directive in self.directives:
            if directive.kind == "disable" and directive.line != line:
                continue
            if "all" in directive.rules or rule_id in directive.rules:
                hits.append(directive)
        return hits

    def is_suppressed(
        self, rule_id: str, line: int, exclude: Directive | None = None
    ) -> bool:
        """True when a directive covers the finding; marks that directive used.

        *exclude* exempts one directive from matching: META001 findings
        about a directive must not be silenceable by that same directive
        (``disable=all`` would otherwise hide its own staleness report).
        """
        hits = [d for d in self._applicable(rule_id, line) if d is not exclude]
        for directive in hits:
            directive.used.add(rule_id)
        return bool(hits)


def parse_suppressions(source: str) -> SuppressionIndex:
    """Scan *source* line by line for ``repro-lint`` directives."""
    index = SuppressionIndex()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _DIRECTIVE.search(text)
        if match is None:
            continue
        rules = frozenset(
            r.strip() for r in match.group("rules").split(",") if r.strip()
        )
        index.directives.append(
            Directive(
                line=lineno,
                col=match.start(),
                kind=match.group("kind"),
                rules=rules,
            )
        )
    return index
