"""Estimation on samples, and statistical validation of uniformity.

The paper's motivation for *large* disk-based samples is that estimators
degrade on undersized ones ("even 'simple' statistics estimators like the
estimation of the number of distinct values do not perform well on
undersized samples", Sec. 1).  :mod:`~repro.analysis.estimators` provides
the estimators the examples exercise; :mod:`~repro.analysis.uniformity`
provides the statistical tests the test suite uses to prove that every
maintenance strategy leaves the sample uniform.
"""

from repro.analysis.bounds import (
    ConfidenceInterval,
    fraction_confidence_interval,
    mean_confidence_interval,
)
from repro.analysis.query import Estimate, SampleQuery
from repro.analysis.estimators import (
    estimate_mean,
    estimate_sum,
    estimate_count_distinct_gee,
    estimate_count_distinct_chao,
    estimate_quantile,
    estimate_fraction,
)
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
    "estimate_mean",
    "estimate_sum",
    "estimate_count_distinct_gee",
    "estimate_count_distinct_chao",
    "estimate_quantile",
    "estimate_fraction",
    "chi_square_statistic",
    "chi_square_uniform_pvalue",
    "inclusion_counts",
    "kolmogorov_smirnov_uniform",
]
