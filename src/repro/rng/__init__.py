"""Pseudo-random number substrate.

The Nomem Refresh algorithm (Sec. 4.3 of the paper) depends on a PRNG whose
state can be captured and restored so that the exact same variate sequence
can be generated twice without buffering it.  This subpackage provides:

* :class:`~repro.rng.mt19937.MT19937` -- the Mersenne Twister generator
  ([14] in the paper), run by numpy's bit generator, with explicit state
  snapshot/restore.
* :class:`~repro.rng.random_source.RandomSource` -- the high-level facade
  used throughout the library (uniform variates, integers, geometric
  variates, reservoir skips, and windows of uniforms read a block at a
  time).
* :mod:`~repro.rng.distributions` -- the variate generators themselves.
* :mod:`~repro.rng.sequential` -- selection sampling (Method S) from
  Vitter's 1984 sequential sampling ([3] in the paper), which the
  refresh write phase runs over windows of uniforms.
"""

from repro.rng.mt19937 import MT19937
from repro.rng.numpy_source import numpy_generator
from repro.rng.random_source import RandomSource
from repro.rng.distributions import (
    geometric_variate,
    reservoir_skip,
    reservoir_skip_z,
)
from repro.rng.sequential import SequentialSampler

__all__ = [
    "MT19937",
    "RandomSource",
    "numpy_generator",
    "geometric_variate",
    "reservoir_skip",
    "reservoir_skip_z",
    "SequentialSampler",
]
