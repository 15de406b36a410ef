"""Approximate query processing over a maintained sample.

The application-facing layer the paper's Sec. 1 motivates: once a uniform
sample exists, arbitrary later queries get approximate answers with error
bounds.  :class:`SampleQuery` provides a small fluent API over a sample's
value column -- one 1-D numpy array, such as
:meth:`~repro.storage.files.SampleFile.scan_values` returns:

>>> q = SampleQuery(values, dataset_size=1_000_000)
>>> q.where(lambda v: v > 100).count()          # Estimate with a CI
>>> q.avg()                                     # Estimate with a CI

Predicates are vectorised: ``where`` calls one once with the column and
keeps the rows of the boolean mask it returns.

Statistics notes (all standard survey-sampling results):

* ``count()`` of a predicate scales the Wilson interval of the hit
  fraction by the dataset size;
* ``sum()`` over a *filtered* query uses the unfiltered sample size for
  scaling (each sampled row represents ``N/n`` rows whether or not it
  matches) and derives its CI from the zero-padded contribution values --
  the textbook domain-sum estimator;
* ``avg()`` over a filtered query conditions on the matching subsample
  (a ratio estimator; its CI uses the subsample size).

Answers are bit for bit a row-at-a-time IEEE loop's over the values as
doubles, left to right, with squares ``d * d``: one number on every
interpreter (see :func:`~repro.analysis.bounds.mean_confidence_interval`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

from repro.analysis.bounds import (
    ConfidenceInterval,
    _padded_mean_interval,
    fraction_confidence_interval,
    mean_confidence_interval,
)

__all__ = ["Estimate", "SampleQuery"]


@dataclass(frozen=True)
class Estimate:
    """A point estimate with its confidence interval."""

    value: float
    interval: ConfidenceInterval

    @property
    def low(self) -> float:
        return self.interval.low

    @property
    def high(self) -> float:
        return self.interval.high

    @property
    def relative_half_width(self) -> float:
        """CI half-width relative to the estimate (inf when value is 0)."""
        if self.value == 0:
            return float("inf") if self.interval.half_width > 0 else 0.0
        return self.interval.half_width / abs(self.value)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.value:,.4g} "
            f"[{self.interval.low:,.4g}, {self.interval.high:,.4g}] "
            f"@{self.interval.confidence:.0%}"
        )


class SampleQuery:
    """Fluent approximate queries over a uniform sample's values.

    ``values`` is the sample's value column (a 1-D array); ``dataset_size``
    the size of the population it represents (the maintenance layer
    tracks it); ``confidence`` the level of every interval it answers.
    The object is immutable; ``where`` returns a narrowed copy that
    remembers the *original* sample size for correct scaling.
    """

    def __init__(
        self,
        values: ArrayLike,
        dataset_size: int,
        confidence: float = 0.95,
        _base_sample_size: int | None = None,
    ) -> None:
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {values.shape}")
        if dataset_size < len(values) and _base_sample_size is None:
            raise ValueError(
                f"dataset_size {dataset_size} smaller than the sample "
                f"({len(values)} rows)"
            )
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        self._values = values
        self._dataset_size = dataset_size
        self._confidence = confidence
        self._base = (
            _base_sample_size if _base_sample_size is not None else len(values)
        )
        if self._base == 0:
            raise ValueError("cannot query an empty sample")

    # -- composition --------------------------------------------------------

    def where(self, predicate: Callable[[np.ndarray], ArrayLike]) -> "SampleQuery":
        """Narrow to rows matching the predicate (population filter): it
        maps the value array to one boolean per row."""
        mask = np.asarray(predicate(self._values), dtype=bool)
        return SampleQuery(
            self._values.compress(mask),
            self._dataset_size,
            self._confidence,
            _base_sample_size=self._base,
        )

    @property
    def matching_rows(self) -> int:
        return len(self._values)

    @property
    def sample_size(self) -> int:
        """The unfiltered sample size used for scaling."""
        return self._base

    # -- aggregates ------------------------------------------------------------

    def count(self) -> Estimate:
        """Estimated number of population rows matching the filters."""
        ci = fraction_confidence_interval(
            len(self._values), self._base, self._confidence,
            population_size=self._dataset_size,
        )
        n = self._dataset_size
        return Estimate(
            value=ci.estimate * n,
            interval=ConfidenceInterval(
                ci.estimate * n, ci.low * n, ci.high * n, self._confidence
            ),
        )

    def sum(self) -> Estimate:
        """Estimated population sum of the values of matching rows.

        Uses the domain-sum estimator: non-matching sampled rows
        contribute zero, so the scaling base is the unfiltered sample.
        """
        if self._base < 2:
            raise ValueError("need an unfiltered sample of at least 2 rows")
        mean_ci = _padded_mean_interval(
            self._values, self._base, self._confidence, self._dataset_size
        )
        n = self._dataset_size
        return Estimate(
            value=mean_ci.estimate * n,
            interval=ConfidenceInterval(
                mean_ci.estimate * n, mean_ci.low * n, mean_ci.high * n,
                self._confidence,
            ),
        )

    def avg(self) -> Estimate:
        """Estimated mean of the values of matching population rows."""
        if len(self._values) < 2:
            raise ValueError(
                "fewer than 2 matching sampled rows; the filter is too "
                "selective for this sample"
            )
        ci = mean_confidence_interval(self._values, self._confidence)
        return Estimate(value=ci.estimate, interval=ci)

    def fraction(self) -> Estimate:
        """Estimated fraction of the population matching the filters."""
        ci = fraction_confidence_interval(
            len(self._values), self._base, self._confidence,
            population_size=self._dataset_size,
        )
        return Estimate(value=ci.estimate, interval=ci)
