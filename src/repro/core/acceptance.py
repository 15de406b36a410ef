"""Biased acceptance: footnote 3's example of another acceptance test.

Footnote 3 of the paper: "We are free to use any other acceptance test.
For example, the biased reservoir sampling scheme in [7] is more suitable
for data stream sampling."  The candidate log is agnostic to *which*
acceptance law selected its entries -- the refresh algorithms only need
candidates in arrival order, each destined for a uniformly random slot.
In this package the acceptance test is part of a sample kind (see
:mod:`repro.core.kinds`, whose uniform kind runs the classic reservoir
law ``M/(|R|+1)``).

:class:`BiasedAcceptance` is constant-probability acceptance, which
biases the sample exponentially toward recent elements: element ``i`` of
a stream of ``n`` survives in the sample with probability proportional
to ``(1 - p/M)^(n-i)``.  This is the memoryless bias the stream-sampling
literature uses for sliding relevance windows; it keeps the
candidate-log machinery intact because each accepted element still
replaces a uniformly random slot.  The ``extra-bias`` experiment
(:mod:`repro.experiments.extra`) appends its accepted elements to a
plain :class:`~repro.storage.files.LogFile` and refreshes with Stack.
"""

from __future__ import annotations

import math

from repro.rng.random_source import RandomSource

__all__ = ["BiasedAcceptance"]


class BiasedAcceptance:
    """Constant-rate acceptance: exponential bias toward recent elements.

    With acceptance probability ``p`` and uniform victim choice among the
    ``M`` slots, an element that arrived ``a`` elements ago is still
    sampled with probability ``p * (1 - p/M)^a`` -- a memoryless recency
    window with mean age ``M/p``.  ``half_life`` expresses the same thing
    operationally: the age at which survival probability halves.
    """

    def __init__(self, sample_size: int, acceptance_probability: float) -> None:
        if sample_size <= 0:
            raise ValueError("sample_size must be positive")
        if not 0.0 < acceptance_probability <= 1.0:
            raise ValueError(
                f"acceptance probability must be in (0, 1], got "
                f"{acceptance_probability}"
            )
        self._sample_size = sample_size
        self._p = acceptance_probability

    @classmethod
    def with_half_life(cls, sample_size: int, half_life: int) -> "BiasedAcceptance":
        """Choose the acceptance rate so survival halves every ``half_life``
        arrivals: ``(1 - p/M)^half_life = 1/2``."""
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        p = sample_size * -math.expm1(math.log(0.5) / half_life)
        return cls(sample_size, min(1.0, p))

    @property
    def expected_rate(self) -> float:
        return self._p

    @property
    def mean_age(self) -> float:
        """Expected age of a sampled element at steady state."""
        return self._sample_size / self._p

    def accept(self, rng: RandomSource) -> bool:
        return rng.random() < self._p
