"""Error bounds for sample-based estimates.

The paper's case for *uniform* samples is that they "derive precise
results and error bounds" (Sec. 1) for whatever estimate is asked later.
This module supplies the bounds: normal-approximation confidence
intervals with the finite-population correction (the sample is drawn
without replacement from a dataset of known size).

All intervals are two-sided at the requested confidence level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "ConfidenceInterval",
    "mean_confidence_interval",
    "fraction_confidence_interval",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided interval with its point estimate."""

    estimate: float
    low: float
    high: float
    confidence: float

    def __post_init__(self) -> None:
        if not self.low <= self.estimate <= self.high:
            raise ValueError(
                f"estimate {self.estimate} outside [{self.low}, {self.high}]"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


@lru_cache
def _z_score(confidence: float) -> float:
    """Two-sided standard-normal quantile via the inverse error function.

    Newton refinement over ``erf`` keeps us scipy-free with ~1e-10
    accuracy for any practical confidence level.  Memoised: every
    interval of every query asks for one of a few confidence levels.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    target = confidence  # P(|Z| <= z) = erf(z / sqrt(2))
    z = 1.0
    for _ in range(60):
        error = math.erf(z / math.sqrt(2.0)) - target
        derivative = math.sqrt(2.0 / math.pi) * math.exp(-z * z / 2.0)
        step = error / derivative
        z -= step
        if abs(step) < 1e-14:
            break
    return z


def _fpc(sample_size: int, population_size: int | None) -> float:
    """Finite-population correction factor for without-replacement samples."""
    if population_size is None:
        return 1.0
    if population_size < sample_size:
        raise ValueError("population cannot be smaller than the sample")
    if population_size <= 1:
        return 0.0
    return math.sqrt((population_size - sample_size) / (population_size - 1))


def mean_confidence_interval(
    sample: ArrayLike,
    confidence: float = 0.95,
    population_size: int | None = None,
) -> ConfidenceInterval:
    """Normal-approximation CI for the population mean of a 1-D array.

    Bit for bit the IEEE loop over its values as doubles ``vs``, left to
    right from ``t = 0.0``: ``t += v`` for the mean ``t / n``, then
    ``t += d * d`` over the deviations ``d = v - mean``.  The squares are
    correctly rounded products (libm ``pow``, which ``float ** 2`` calls,
    rounds some apart), and the running totals never depend on the
    interpreter (builtin ``sum`` is compensated from 3.12) or on numpy's
    pairwise ``np.sum``.
    """
    values = np.asarray(sample)
    if len(values) < 2:
        raise ValueError("need at least two observations")
    return _padded_mean_interval(values, len(values), confidence, population_size)


def _padded_mean_interval(
    values: np.ndarray,
    n: int,
    confidence: float,
    population_size: int | None,
) -> ConfidenceInterval:
    """:func:`mean_confidence_interval` of ``values`` padded with zeros to
    ``n >= 2`` rows, bit for bit, without building the padded array.

    Every padded row deviates from the mean by ``-mean``, so its square
    is ``mean * mean``, added after the matching rows' squares.  One
    numpy pass: the squares fill one array and ``np.add.accumulate``
    totals it left to right, as the loop does.
    """
    matches = len(values)
    mean = _float_sum(values) / n if matches else 0.0
    terms = np.empty(n)
    squares = terms[:matches]
    np.subtract(values, mean, out=squares)
    np.multiply(squares, squares, out=squares)
    terms[matches:] = mean * mean
    variance = float(np.add.accumulate(terms, out=terms)[-1]) / (n - 1)
    stderr = math.sqrt(variance / n) * _fpc(n, population_size)
    margin = _z_score(confidence) * stderr
    return ConfidenceInterval(mean, mean - margin, mean + margin, confidence)


def _float_sum(values: np.ndarray) -> float:
    """The IEEE loop ``t = 0.0; t += v`` over ``values`` as doubles, left
    to right: integers whose magnitudes sum below 2**53 add exactly, in
    int64 as in doubles."""
    if values.dtype.kind == "i":
        largest = max(-int(values.min()), int(values.max()))
        if largest * len(values) < 2**53:
            return float(values.sum())
    # ``+ 0.0`` is the loop's start: it turns an all ``-0.0`` total to 0.0.
    return float(np.add.accumulate(values, dtype=float)[-1]) + 0.0


def fraction_confidence_interval(
    hits: int,
    sample_size: int,
    confidence: float = 0.95,
    population_size: int | None = None,
) -> ConfidenceInterval:
    """Wilson score interval for a population proportion.

    Better behaved than the Wald interval near 0/1 -- relevant because
    selective predicates on samples routinely produce tiny hit counts.
    """
    if sample_size <= 0:
        raise ValueError("sample_size must be positive")
    if not 0 <= hits <= sample_size:
        raise ValueError(f"hits {hits} outside [0, {sample_size}]")
    z = _z_score(confidence)
    z2 = z * z
    p = hits / sample_size
    fpc = _fpc(sample_size, population_size)
    denom = 1.0 + z2 / sample_size
    centre = (p + z2 / (2 * sample_size)) / denom
    margin = (
        z
        * math.sqrt(p * (1 - p) / sample_size + z2 / (4 * sample_size**2))
        / denom
        * fpc
    )
    # The Wilson centre is shrunk toward 1/2, so at the 0/1 boundaries it
    # can exclude the raw proportion; widen to include the point estimate
    # (the conventional hits=0 -> low=0 and hits=n -> high=1 behaviour).
    low = max(0.0, min(p, centre - margin))
    high = min(1.0, max(p, centre + margin))
    return ConfidenceInterval(p, low, high, confidence)
