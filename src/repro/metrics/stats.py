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
    """Median of a sequence: its middle value, or the mean of the two
    middle values for an even count; NaN for an empty sequence or one
    that holds NaN.

    A Python sort, equal bit for bit to ``np.median`` but for the sign
    of a zero median of values that hold ``-0.0``.
    """
    ordered = sorted(map(float, values))
    count = len(ordered)
    if count == 0 or any(value != value for value in ordered):
        return float("nan")
    middle = count // 2
    if count % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation from the median (paper's error bars)."""
    center = median(values)
    return median([abs(float(value) - center) for value in values])


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
