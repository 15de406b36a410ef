"""Common interface and result type for refresh algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.core.kinds import SampleKind
from repro.core.logs import CandidateSource
from repro.rng.random_source import RandomSource
from repro.storage.files import SampleFile
from repro.storage.memory import MemoryReport

__all__ = ["RefreshAlgorithm", "RefreshResult", "require_slot_draws"]


@dataclass
class RefreshResult:
    """What one refresh did, for experiments and assertions.

    ``displaced`` is the paper's ``Psi``: sample elements overwritten by a
    final candidate.  ``candidates`` is ``|C|``.  The I/O cost itself is
    charged to the sample/log cost model as the refresh runs; callers
    checkpoint around the call to isolate it.
    """

    candidates: int
    displaced: int
    memory: MemoryReport = field(default_factory=MemoryReport)

    @property
    def stable(self) -> int | None:
        """Stable elements, when the sample size is known to the caller."""
        return None  # computed by callers as M - displaced when needed

    def __post_init__(self) -> None:
        if self.candidates < 0:
            raise ValueError("candidates must be non-negative")
        if self.displaced < 0:
            raise ValueError("displaced must be non-negative")
        if self.displaced > self.candidates:
            raise ValueError(
                f"displaced ({self.displaced}) cannot exceed candidates "
                f"({self.candidates}): every displaced slot has a final candidate"
            )


@runtime_checkable
class RefreshAlgorithm(Protocol):
    """A deferred refresh strategy: apply a candidate source to the sample."""

    #: Human-readable name used in experiment tables.
    name: str

    def refresh(
        self,
        sample: SampleFile,
        source: CandidateSource,
        rng: RandomSource,
        kind: SampleKind,
    ) -> RefreshResult:  # pragma: no cover - protocol
        ...


def require_slot_draws(algorithm: str, kind: SampleKind) -> None:
    """Reject a kind whose victims are chosen by content, not drawn: Stack,
    Nomem and the full-log replay encode uniform slot draws themselves."""
    if not kind.draws_slots:
        raise ValueError(
            f"{algorithm} refresh draws uniform victim slots; kind "
            f"{kind.name!r} chooses victims by content (use naive or array)"
        )
