"""Refresh policies: when the deferred refresh actually runs.

The paper assumes periodic refresh in its experiments ("we assumed that
the sample is refreshed periodically", Sec. 6.1) but the framework is
policy-agnostic (Sec. 3 mentions lazy and periodic deferred refresh, after
Gupta & Mumick's materialized-view taxonomy).  A policy is consulted after
every processed operation.
"""

from __future__ import annotations

from typing import Protocol

__all__ = ["RefreshPolicy", "PeriodicPolicy", "ThresholdPolicy", "ManualPolicy"]


class RefreshPolicy(Protocol):
    """Decides whether to refresh after an operation was processed.

    ``batch_quota`` bounds how far a batch may run before a refresh could
    become due: the batched insert path of
    :class:`~repro.core.maintenance.SampleMaintainer` cuts every batch at
    it, so a refresh fires after exactly the element it would fire after
    under element-wise inserts.
    """

    def should_refresh(self, operations_since_refresh: int, log_elements: int) -> bool:
        """``operations_since_refresh`` counts dataset operations;
        ``log_elements`` counts what actually landed in the log."""
        ...  # pragma: no cover - protocol

    def batch_quota(
        self, operations_since_refresh: int, log_elements: int
    ) -> tuple[int | None, int | None]:
        """``(max_operations, max_log_appends)`` before a refresh could be
        due; ``None`` leaves that bound open."""
        ...  # pragma: no cover - protocol

    def notify_refresh(self) -> None:
        """Called after a refresh completed."""
        ...  # pragma: no cover - protocol


class PeriodicPolicy:
    """Refresh every ``period`` dataset operations (the paper's default)."""

    def __init__(self, period: int) -> None:
        if period <= 0:
            raise ValueError("refresh period must be positive")
        self.period = period

    def should_refresh(self, operations_since_refresh: int, log_elements: int) -> bool:
        return operations_since_refresh >= self.period

    def batch_quota(
        self, operations_since_refresh: int, log_elements: int
    ) -> tuple[int | None, int | None]:
        """``(max_operations, max_log_appends)`` before a refresh is due."""
        return max(1, self.period - operations_since_refresh), None

    def notify_refresh(self) -> None:
        return None

    def __repr__(self) -> str:
        return f"PeriodicPolicy(period={self.period})"


class ThresholdPolicy:
    """Refresh once the log holds ``max_log_elements`` elements.

    With candidate logging this bounds the *candidate* count (the quantity
    Fig. 12/13 sweep); with full logging it bounds raw log size.
    """

    def __init__(self, max_log_elements: int) -> None:
        if max_log_elements <= 0:
            raise ValueError("max_log_elements must be positive")
        self.max_log_elements = max_log_elements

    def should_refresh(self, operations_since_refresh: int, log_elements: int) -> bool:
        return log_elements >= self.max_log_elements

    def batch_quota(
        self, operations_since_refresh: int, log_elements: int
    ) -> tuple[int | None, int | None]:
        """Unbounded operations, but stop at the triggering log append."""
        if log_elements >= self.max_log_elements:
            # Already due: any next operation triggers, accepted or not.
            return 1, None
        return None, self.max_log_elements - log_elements

    def notify_refresh(self) -> None:
        return None

    def __repr__(self) -> str:
        return f"ThresholdPolicy(max_log_elements={self.max_log_elements})"


class ManualPolicy:
    """Never auto-refresh; the caller invokes ``refresh()`` explicitly."""

    def should_refresh(self, operations_since_refresh: int, log_elements: int) -> bool:
        return False

    def batch_quota(
        self, operations_since_refresh: int, log_elements: int
    ) -> tuple[int | None, int | None]:
        """No refresh ever: batches are unbounded."""
        return None, None

    def notify_refresh(self) -> None:
        return None

    def __repr__(self) -> str:
        return "ManualPolicy()"
