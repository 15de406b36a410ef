"""Main-memory accounting for the Fig. 12 experiment.

The paper compares the in-memory footprint of the refresh implementations:
Array Refresh always holds ``M`` 4-byte indexes, Stack Refresh holds one
4-byte index per final candidate (``Psi`` of them at the peak), Nomem
Refresh holds only the PRNG state, and the geometric file needs a buffer of
full elements as large as the number of candidates it defers.  Each
algorithm fills in a :class:`MemoryReport`; the Fig. 12 bench just plots
``peak_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MemoryReport", "INDEX_BYTES", "MT19937_STATE_BYTES"]

#: The paper counts candidate indexes as 4-byte integers (Sec. 6.4).
INDEX_BYTES = 4

#: MT19937 state: 624 32-bit words + position -- the paper's "negligible"
#: footprint of Nomem Refresh.
MT19937_STATE_BYTES = 624 * 4 + 4


@dataclass
class MemoryReport:
    """Peak main-memory use of one refresh (or logging) operation."""

    #: bytes of index arrays / stacks (4 bytes per entry, as in the paper)
    index_bytes: int = 0
    #: bytes of buffered full elements (geometric file buffer)
    element_bytes: int = 0
    #: bytes of PRNG state snapshots
    prng_state_bytes: int = 0

    @property
    def peak_bytes(self) -> int:
        return self.index_bytes + self.element_bytes + self.prng_state_bytes

    def account_indexes(self, count: int) -> None:
        """Track the high-water mark of live index entries."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.index_bytes = max(self.index_bytes, count * INDEX_BYTES)

    def account_elements(self, count: int, element_size: int) -> None:
        if count < 0 or element_size <= 0:
            raise ValueError("invalid element accounting")
        self.element_bytes = max(self.element_bytes, count * element_size)

    def account_prng_snapshots(self, count: int) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        self.prng_state_bytes = max(self.prng_state_bytes, count * MT19937_STATE_BYTES)
