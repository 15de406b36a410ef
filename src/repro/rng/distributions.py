"""Variate generators used by the sampling and refresh algorithms.

Three distributions drive the whole paper:

* the **geometric** skip of Stack/Nomem Refresh (Sec. 4.2): with ``k`` of
  ``M`` sample slots already claimed, the number of candidate indexes skipped
  before the next final candidate is geometric with success probability
  ``p_k = (M - k) / M``;
* **Vitter's reservoir skip** (Sec. 2 / Sec. 5, [4] in the paper): the number
  of stream elements rejected between two consecutive reservoir candidates.
  Algorithm X computes it by exact sequential search, Algorithm Z by
  rejection and is O(1) amortised once the dataset is much larger than the
  sample;
* the plain **uniform slot choice** of reservoir sampling itself.

All generators draw from a caller-supplied generator object exposing
``random() -> float in [0, 1)`` (e.g. :class:`repro.rng.mt19937.MT19937` or
:class:`repro.rng.random_source.RandomSource`), so PRNG state snapshots taken
by the caller replay these variates exactly -- the property Nomem Refresh
and the full-log adapter (Sec. 5) are built on.
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np

__all__ = [
    "UniformSource",
    "geometric_variate",
    "geometric_variates",
    "reservoir_skip",
    "reservoir_skip_x",
    "reservoir_skip_z",
    "ALGORITHM_Z_THRESHOLD",
]


class UniformSource(Protocol):
    """Anything producing uniform floats in ``[0, 1)``."""

    def random(self) -> float:  # pragma: no cover - protocol
        ...


def geometric_variate(rng: UniformSource, p: float) -> int:
    """Number of failures before the first success, ``P(X=x) = (1-p)^x p``.

    This is the skip law of Stack Refresh (Sec. 4.2): with success
    probability ``p_k = (M-k)/M``, ``X_k`` candidates are skipped before the
    next one is selected.

    Uses the inverse-CDF construction ``floor(ln U / ln(1-p))`` with
    ``U ~ (0, 1]``, which consumes exactly one uniform variate -- important
    because Nomem Refresh replays the uniform stream to regenerate the same
    skips.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"geometric success probability must be in (0, 1], got {p}")
    return _inverse_cdf(rng.random(), p)


def _inverse_cdf(u: float, p: float) -> int:
    """``floor(ln(1-u) / ln(1-p))`` for ``u`` in [0, 1), with libm logs."""
    # Exact boundary, not rounding-sensitive math: p == 1.0 is the one
    # value where log1p(-p) would be -inf.
    if p == 1.0:  # repro-lint: disable=FLT001
        return 0
    return int(math.log(1.0 - u) / math.log1p(-p))  # 1-u in (0, 1]


#: Relative half-width of the band around an integer inside which a
#: numpy quotient is recomputed with libm: numpy's ``log``/``log1p`` stay
#: within a few ULPs (~1e-16 relative) of libm's, so outside the band
#: both quotients floor alike.
_LIBM_BAND = 1e-9


def geometric_variates(uniforms: np.ndarray, numerators: np.ndarray, size: int) -> np.ndarray:
    """:func:`geometric_variate` over a window, bit-identical to the scalar.

    Returns one int64 skip per uniform in [0, 1), with success
    probability ``p_i = numerators[i] / size`` in (0, 1) -- the refresh's
    ``p_k = (M - k) / M`` -- so a replayed stream selects the same
    survivors.  numpy divides ``numerators`` by ``size`` with the same
    correctly rounded IEEE division as the scalar caller, and computes
    the quotients ``q = ln(1-u) / ln(1-p)`` for the whole window.  Its
    logs may differ from libm's in the last bit, which can move
    ``floor(q)`` only where ``q`` lies within a few ULPs of a positive
    integer (``q >= 0`` exactly in both).  The elements within a relative
    ``1e-9`` of one are recomputed with ``math``; elsewhere the floors
    agree, and as the outputs are integers they equal the scalar loop's.
    """
    q = np.log(1.0 - uniforms) / np.log1p(numerators / -size)
    skips = q.astype(np.int64)
    upper = (q * (1.0 + _LIBM_BAND)).astype(np.int64)
    near = upper != (q * (1.0 - _LIBM_BAND)).astype(np.int64)
    if np.count_nonzero(near):
        for i in np.flatnonzero(near).tolist():
            skips[i] = _inverse_cdf(float(uniforms[i]), int(numerators[i]) / size)
    return skips


# Vitter recommends switching from Algorithm X to Algorithm Z once the
# dataset is ~22x the sample size; below that X's sequential search is cheap.
ALGORITHM_Z_THRESHOLD = 22


def reservoir_skip_x(rng: UniformSource, n: int, t: int) -> int:
    """Vitter's Algorithm X: exact reservoir skip by sequential search.

    Given a reservoir of size ``n`` and ``t >= n`` elements processed so
    far, returns ``S`` such that elements ``t+1 .. t+S`` are rejected and
    element ``t+S+1`` is the next candidate.  Runs in O(S) time but consumes
    a single uniform variate.
    """
    if n <= 0:
        raise ValueError("reservoir size must be positive")
    if t < n:
        raise ValueError(f"stream position t={t} must be >= reservoir size n={n}")
    v = rng.random()
    s = 0
    tt = t + 1
    quot = (tt - n) / tt
    while quot > v:
        s += 1
        tt += 1
        quot *= (tt - n) / tt
    return s


def reservoir_skip_z(rng: UniformSource, n: int, t: int, w: float) -> tuple[int, float]:
    """Vitter's Algorithm Z: reservoir skip via rejection sampling.

    Returns ``(skip, w')`` where ``w`` is Vitter's auxiliary variable
    ``W = U^(-1/n)`` carried between calls.  Expected O(1) uniform variates
    per skip once ``t`` is large, which is what makes candidate logging
    cheap for long streams.

    Falls back to :func:`reservoir_skip_x` when ``t <= ALGORITHM_Z_THRESHOLD
    * n``, as Vitter's hybrid algorithm does.
    """
    if n <= 0:
        raise ValueError("reservoir size must be positive")
    if t < n:
        raise ValueError(f"stream position t={t} must be >= reservoir size n={n}")
    if w <= 1.0:
        raise ValueError(f"auxiliary variable w must exceed 1, got {w}")
    if t <= ALGORITHM_Z_THRESHOLD * n:
        skip = reservoir_skip_x(rng, n, t)
        # Refresh w so later calls keep a valid auxiliary variable.
        return skip, _next_w(rng, n)

    term = t - n + 1
    while True:
        # Step Z2: tentative skip from the majorising density g(x).
        u = rng.random()
        x = t * (w - 1.0)
        s = int(x)
        # Step Z3: squeeze test (cheap acceptance).
        lhs = math.exp(math.log(((u * ((t + 1) / term) ** 2) * (term + s)) / (t + x)) / n)
        rhs = (((t + x) / (term + s)) * term) / t
        if lhs <= rhs:
            w = rhs / lhs
            return s, w
        # Step Z4: full acceptance test against the true ratio f(s)/cg(x).
        y = (((u * (t + 1)) / term) * (t + s + 1)) / (t + x)
        if n < s:
            denom = t
            numer_lim = term + s
        else:
            denom = t - n + s
            numer_lim = t + 1
        numer = t + s
        while numer >= numer_lim:
            y = (y * numer) / denom
            denom -= 1
            numer -= 1
        w_next = _next_w(rng, n)
        if math.exp(math.log(y) / n) <= (t + x) / t:
            return s, w_next
        w = w_next


def _next_w(rng: UniformSource, n: int) -> float:
    """Draw Vitter's auxiliary variable ``W = U^(-1/n) > 1``."""
    u = 1.0 - rng.random()  # (0, 1]
    return math.exp(-math.log(u) / n)


def reservoir_skip(
    rng: UniformSource,
    n: int,
    t: int,
    w: float | None = None,
    method: str = "auto",
) -> tuple[int, float]:
    """Dispatching reservoir-skip generator.

    ``method`` is one of ``"x"``, ``"z"`` or ``"auto"`` (Vitter's hybrid:
    X while ``t <= 22n``, Z afterwards).  Always returns ``(skip, w')`` so
    callers can treat the methods interchangeably.
    """
    if method not in ("x", "z", "auto"):
        raise ValueError(f"unknown skip method: {method!r}")
    if method == "x":
        skip = reservoir_skip_x(rng, n, t)
        return skip, w if w is not None else 2.0
    if w is None or w <= 1.0:
        w = _next_w(rng, n)
    return reservoir_skip_z(rng, n, t, w)
