"""Property-based: the columnar estimator answers bit for bit like a
row-at-a-time loop.

The oracle below is the plain-loop query layer: rows in a list, one
predicate call per row, values turned into Python floats, and explicit
``t += v`` and ``t += d * d`` loops, left to right, for the mean and the
variance -- no builtin ``sum`` (compensated from Python 3.12) and no libm
``pow``, so it is one number on every interpreter.  It is copied here,
arithmetic and all, so it shares no code with :mod:`repro.analysis`
beyond the result containers.  Every ``count``, ``fraction``, ``sum``
and ``avg`` :class:`Estimate` must compare ``==``, over int64 samples of
2 to 5,000 values up to about 2**62 in magnitude, with and without exact
int64 sums, and for masks with no hit, one hit, all hits and some hits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.bounds import ConfidenceInterval
from repro.analysis.query import Estimate, SampleQuery

# -- the plain-loop oracle ---------------------------------------------------


def _oracle_z_score(confidence):
    z = 1.0
    for _ in range(60):
        error = math.erf(z / math.sqrt(2.0)) - confidence
        derivative = math.sqrt(2.0 / math.pi) * math.exp(-z * z / 2.0)
        step = error / derivative
        z -= step
        if abs(step) < 1e-14:
            break
    return z


def _oracle_fpc(sample_size, population_size):
    if population_size is None:
        return 1.0
    if population_size <= 1:
        return 0.0
    return math.sqrt((population_size - sample_size) / (population_size - 1))


def _oracle_mean_ci(sample, confidence, population_size=None):
    n = len(sample)
    total = 0.0
    for v in sample:
        total += v
    mean = total / n
    total = 0.0
    for v in sample:
        d = v - mean
        total += d * d
    variance = total / (n - 1)
    stderr = math.sqrt(variance / n) * _oracle_fpc(n, population_size)
    margin = _oracle_z_score(confidence) * stderr
    return ConfidenceInterval(mean, mean - margin, mean + margin, confidence)


def _oracle_fraction_ci(hits, sample_size, confidence, population_size):
    z = _oracle_z_score(confidence)
    z2 = z * z
    p = hits / sample_size
    fpc = _oracle_fpc(sample_size, population_size)
    denom = 1.0 + z2 / sample_size
    centre = (p + z2 / (2 * sample_size)) / denom
    margin = (
        z
        * math.sqrt(p * (1 - p) / sample_size + z2 / (4 * sample_size**2))
        / denom
        * fpc
    )
    low = max(0.0, min(p, centre - margin))
    high = min(1.0, max(p, centre + margin))
    return ConfidenceInterval(p, low, high, confidence)


class LoopQuery:
    """The row-at-a-time query: a list of rows, callables per row."""

    def __init__(self, rows, dataset_size, confidence, base=None):
        self.rows = list(rows)
        self.dataset_size = dataset_size
        self.confidence = confidence
        self.base = len(rows) if base is None else base

    def where(self, predicate):
        kept = [row for row in self.rows if predicate(row)]
        return LoopQuery(kept, self.dataset_size, self.confidence, self.base)

    def count(self):
        ci = _oracle_fraction_ci(
            len(self.rows), self.base, self.confidence, self.dataset_size
        )
        n = self.dataset_size
        return Estimate(
            ci.estimate * n,
            ConfidenceInterval(
                ci.estimate * n, ci.low * n, ci.high * n, self.confidence
            ),
        )

    def fraction(self):
        ci = _oracle_fraction_ci(
            len(self.rows), self.base, self.confidence, self.dataset_size
        )
        return Estimate(ci.estimate, ci)

    def sum(self, value_of):
        contributions = [value_of(row) for row in self.rows]
        padded = contributions + [0.0] * (self.base - len(self.rows))
        ci = _oracle_mean_ci(padded, self.confidence, self.dataset_size)
        n = self.dataset_size
        return Estimate(
            ci.estimate * n,
            ConfidenceInterval(
                ci.estimate * n, ci.low * n, ci.high * n, self.confidence
            ),
        )

    def avg(self, value_of):
        if len(self.rows) < 2:
            raise ValueError("fewer than 2 matching rows")
        ci = _oracle_mean_ci([value_of(row) for row in self.rows], self.confidence)
        return Estimate(ci.estimate, ci)


# -- the comparison ----------------------------------------------------------

CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)


def assert_same_answers(values, mask, confidence, dataset_size):
    """Every aggregate of the column query equals the loop's, ``==``."""
    column = SampleQuery(values, dataset_size, confidence).where(lambda _: mask)
    # Oracle rows are (keep, value): the loop filters on the flag and
    # aggregates the value as a float, as the serving path did.
    rows = list(zip(mask.tolist(), values.tolist()))
    loop = LoopQuery(rows, dataset_size, confidence).where(lambda row: row[0])

    def value_of(row):
        return float(row[1])

    assert column.matching_rows == len(loop.rows)
    assert column.count() == loop.count()
    assert column.fraction() == loop.fraction()
    assert column.sum() == loop.sum(value_of)
    if len(loop.rows) < 2:
        with pytest.raises(ValueError):
            column.avg()
    else:
        assert column.avg() == loop.avg(value_of)


@st.composite
def samples(draw):
    """An int64 sample, a mask over it, a confidence and a dataset size."""
    n = draw(st.integers(2, 5_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from(["small", "wide", "edge", "huge"]))
    if scale == "huge":
        # Near +-2**62: every magnitude sum is past 2**53.
        magnitudes = rng.integers(2**62 - 2**40, 2**62, n)
        values = magnitudes * rng.choice(np.array([-1, 1]), n)
    else:
        # "edge" puts n * max|v| around 2**53, where the exact int64 sum
        # stops being taken.
        bound = {
            "small": 1_000,
            "wide": 2**50,
            "edge": 2**53 // n + draw(st.integers(-1, 1)),
        }[scale]
        values = rng.integers(-bound, bound + 1, n)
    hits = draw(st.sampled_from(["none", "one", "all", "some"]))
    if hits == "none":
        mask = np.zeros(n, dtype=bool)
    elif hits == "one":
        mask = np.zeros(n, dtype=bool)
        mask[rng.integers(n)] = True
    elif hits == "all":
        mask = np.ones(n, dtype=bool)
    else:
        mask = rng.random(n) < draw(st.floats(0.0, 1.0))
    confidence = draw(st.sampled_from(CONFIDENCES))
    dataset_size = n + draw(st.integers(0, 10**9))
    return values.astype(np.int64), mask, confidence, dataset_size


class TestColumnarEstimatorBits:
    @given(case=samples())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_loop(self, case):
        assert_same_answers(*case)

    def test_square_that_pow_and_multiply_round_apart(self):
        # libm pow(d, 2) -- what ``float ** 2`` calls -- and the correctly
        # rounded d * d differ on one deviation of this sample, and the
        # interval moves with it.  The estimator must follow d * d: one
        # that squares with ``pow`` (or ``** 2``) fails here.
        values = np.array(
            [-225, 763, 557, 900, 251, 789, 589, -134, -865, -777, 205, 310,
             800, -957, 586, 929, -424, 824, 423, -184, 799, -810, 12, -492],
            dtype=np.int64,
        )
        deviations = (values - values.sum() / len(values)).tolist()
        assert any(math.pow(d, 2.0) != d * d for d in deviations)
        for confidence in CONFIDENCES:
            assert_same_answers(values, np.ones(len(values), dtype=bool),
                                confidence, 10_000)

    def test_exact_sum_threshold(self):
        # One value short of and one past the exact int64 sum, around
        # the value 2**53 / n.
        n = 64
        for largest in (2**53 // n - 1, 2**53 // n, 2**53 // n + 1):
            values = np.full(n, largest, dtype=np.int64)
            values[::2] = -largest + np.arange(n // 2)
            assert_same_answers(values, values > 0, 0.95, 10**6)
            assert_same_answers(values, np.ones(n, dtype=bool), 0.95, 10**6)
