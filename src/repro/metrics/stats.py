"""Small, dependency-light statistics helpers.

The paper reports medians of daily values with error bars of one median
absolute deviation (MAD), "a robust estimator of typical value
dispersion" (Figure 6 caption), plus CDFs for workload characterization.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (the paper's "overall average" wait); NaN for an
    empty sequence."""
    if len(values) == 0:
        return float("nan")
    return sum(values) / len(values)


def median(values: Sequence[float]) -> float:
    """Median of a sequence; NaN for an empty one."""
    if len(values) == 0:
        return float("nan")
    return float(np.median(np.asarray(values, dtype=np.float64)))


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation from the median (paper's error bars)."""
    if len(values) == 0:
        return float("nan")
    array = np.asarray(values, dtype=np.float64)
    return float(np.median(np.abs(array - np.median(array))))


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0-100); NaN for an empty sequence."""
    if len(values) == 0:
        return float("nan")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def cdf_at(values: Sequence[float], thresholds: Sequence[float]) -> np.ndarray:
    """Fraction of ``values`` that are <= each threshold.

    Used to read CDF curves at the paper's labeled axis points (e.g.
    "fraction of service jobs running longer than 29 days").
    """
    array = np.sort(np.asarray(values, dtype=np.float64))
    if array.size == 0:
        return np.full(len(thresholds), float("nan"))
    positions = np.searchsorted(array, np.asarray(thresholds, dtype=np.float64), "right")
    return positions / array.size
