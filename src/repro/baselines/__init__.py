"""Comparison baselines from the paper's evaluation.

* :class:`~repro.baselines.geometric_file.GeometricFile` -- a
  reconstruction of Jermaine et al.'s geometric file (SIGMOD 2004), the
  only prior deferred disk-sample maintainer (Sec. 6.5, Fig. 14).

Immediate maintenance (Figs. 6-11) is ``SampleMaintainer(strategy="immediate")``.
"""

from repro.baselines.geometric_file import GeometricFile, GeometricFileParameters

__all__ = ["GeometricFile", "GeometricFileParameters"]
