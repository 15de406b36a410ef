"""Closed-form quantities from Sections 3-4 of the paper.

These are the analytical checkpoints the experiments and tests assert
against:

* expected candidate-log size after ``n`` insertions (Sec. 3.2),
* per-slot displacement probability and expected number of displaced
  elements ``E(Psi)`` (Sec. 4.1),
* Stack Refresh selection/displacement probabilities (Sec. 4.2).
"""

from __future__ import annotations

import math

from repro.obs.timeseries import left_to_right_sum

__all__ = [
    "expected_candidates",
    "expected_candidates_exact",
    "displacement_probability",
    "expected_displaced",
    "stack_selection_probability",
    "stack_write_probability",
]


def expected_candidates(sample_size: int, dataset_size: int, inserts: int) -> float:
    """``E(|C|) ~ M ln((|R|+n)/|R|)``: logarithmic candidate-log growth.

    The logarithmic approximation of the harmonic sum from Sec. 3.2; exact
    value in :func:`expected_candidates_exact`.
    """
    _check_positive(sample_size, "sample_size")
    if dataset_size < sample_size:
        raise ValueError("dataset must be at least as large as the sample")
    if inserts < 0:
        raise ValueError("inserts must be non-negative")
    return sample_size * math.log((dataset_size + inserts) / dataset_size)


def expected_candidates_exact(sample_size: int, dataset_size: int, inserts: int) -> float:
    """``E(|C|) = sum_{i=1..n} M/(|R|+i)`` via harmonic numbers.

    Uses ``H_k = digamma-free`` telescoping with :func:`math.lgamma`-grade
    precision through the recurrence ``H_a - H_b``; exact to float rounding.
    """
    _check_positive(sample_size, "sample_size")
    if dataset_size < sample_size:
        raise ValueError("dataset must be at least as large as the sample")
    if inserts < 0:
        raise ValueError("inserts must be non-negative")
    return sample_size * (_harmonic(dataset_size + inserts) - _harmonic(dataset_size))


def displacement_probability(sample_size: int, candidates: int) -> float:
    """``P(Psi_j = 1) = 1 - (1 - 1/M)^|C|`` (Sec. 4.1).

    Probability that any given sample slot is overwritten during a refresh
    that processes ``|C|`` candidates.
    """
    _check_positive(sample_size, "sample_size")
    if candidates < 0:
        raise ValueError("candidates must be non-negative")
    if sample_size == 1:
        # A one-slot sample is displaced by any candidate at all.
        return 0.0 if candidates == 0 else 1.0
    return -math.expm1(candidates * math.log1p(-1.0 / sample_size))


def expected_displaced(sample_size: int, candidates: int) -> float:
    """``E(Psi) = M (1 - (1 - 1/M)^|C|)`` (Sec. 4.1).

    The expected I/O volume of Array/Stack/Nomem Refresh: ``Psi``
    sequential log reads plus ``Psi`` sequential sample writes, with
    ``Psi <= min(M, |C|)``.
    """
    return sample_size * displacement_probability(sample_size, candidates)


def stack_selection_probability(sample_size: int, already_selected: int) -> float:
    """``p_k = (M - k)/M``: a reverse-scanned candidate survives (Sec. 4.2)."""
    _check_positive(sample_size, "sample_size")
    if not 0 <= already_selected <= sample_size:
        raise ValueError("already_selected out of range")
    return (sample_size - already_selected) / sample_size


def stack_write_probability(sample_size: int, position: int, remaining: int) -> float:
    """``q_{j,k} = k / (M - j + 1)``: position ``j`` (1-based) is displaced.

    ``remaining`` is the number of final candidates not yet written.
    """
    _check_positive(sample_size, "sample_size")
    if not 1 <= position <= sample_size:
        raise ValueError(f"position must be in [1, {sample_size}]")
    slots_left = sample_size - position + 1
    if not 0 <= remaining <= slots_left:
        raise ValueError(
            f"remaining candidates ({remaining}) exceed remaining slots ({slots_left})"
        )
    return remaining / slots_left


def _harmonic(k: int) -> float:
    """Harmonic number ``H_k`` with asymptotic expansion for large ``k``."""
    if k < 0:
        raise ValueError("harmonic numbers need k >= 0")
    if k < 64:
        return left_to_right_sum(1.0 / i for i in range(1, k + 1))
    euler_gamma = 0.5772156649015328606
    inv = 1.0 / k
    inv2 = inv * inv
    return (
        math.log(k)
        + euler_gamma
        + inv / 2.0
        - inv2 / 12.0
        + inv2 * inv2 / 120.0
    )


def _check_positive(value: int, name: str) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
