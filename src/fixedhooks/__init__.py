"""Exact q-series engine for fixed hook-length statistics of integer partitions.

The package has four layers: combinatorial types and enumeration
(:mod:`fixedhooks.partitions`), exact integer counting oracles
(:mod:`fixedhooks.oracles`), exact truncated Laurent-series arithmetic
(:mod:`fixedhooks.qseries`), and the catalog of generating-function builders
(:mod:`fixedhooks.genfun`) whose coefficients the verifier
(:mod:`fixedhooks.verify`) compares against the oracles.
"""

from .genfun import TheoremId, build_series, resolve_theorem
from .partitions import Family, Partition, enumerate_partitions, partition_count
from .qseries import LaurentSeries, gauss_binomial, inv_poch, poch

__version__ = "0.1.0"

__all__ = [
    "Family",
    "LaurentSeries",
    "Partition",
    "TheoremId",
    "build_series",
    "enumerate_partitions",
    "gauss_binomial",
    "inv_poch",
    "partition_count",
    "poch",
    "resolve_theorem",
    "__version__",
]
