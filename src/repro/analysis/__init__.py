"""Estimation on samples, and statistical validation of uniformity.

The paper's case for *uniform* samples is that whatever is asked later
gets "precise results and error bounds" (Sec. 1).
:class:`~repro.analysis.query.SampleQuery` is the one estimator: it turns
a sample's value column into counts, sums, averages and fractions, each
with a confidence interval from :mod:`~repro.analysis.bounds`.
:mod:`~repro.analysis.uniformity` provides the statistical tests the test
suite uses to prove that every maintenance strategy leaves the sample
uniform.
"""

from repro.analysis.bounds import (
    ConfidenceInterval,
    fraction_confidence_interval,
    mean_confidence_interval,
)
from repro.analysis.query import Estimate, SampleQuery
from repro.analysis.uniformity import (
    chi_square_statistic,
    chi_square_uniform_pvalue,
    inclusion_counts,
    kolmogorov_smirnov_uniform,
)

__all__ = [
    "ConfidenceInterval",
    "mean_confidence_interval",
    "fraction_confidence_interval",
    "Estimate",
    "SampleQuery",
    "chi_square_statistic",
    "chi_square_uniform_pvalue",
    "inclusion_counts",
    "kolmogorov_smirnov_uniform",
]
