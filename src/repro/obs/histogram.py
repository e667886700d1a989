"""Fixed-bucket histograms with percentile estimation.

The :class:`~repro.metrics.collector.MetricsCollector` derives its wait
histograms at end of run; the ``run.metrics`` trace record carries their
:meth:`Histogram.state`, which ``omega-sim trace`` and ``report`` merge
across runs. Percentiles come from fixed bucket boundaries the way
monitoring systems (Prometheus et al.) estimate them, trading exactness
for constant memory.
"""

from __future__ import annotations

import math
from typing import Any

#: Default histogram bucket upper bounds (seconds-flavoured, spanning
#: sub-millisecond decision times to multi-hour waits).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)

def _checked(state: Any) -> dict[str, Any]:
    """``state`` if it is shaped like :meth:`Histogram.state` (states
    also arrive from trace files), else a one-line ``ValueError``."""
    try:
        values = [*state["bounds"], *state["counts"], state["count"], state["total"]]
        values += [state[key] for key in ("min", "max") if state[key] is not None]
        valid = all(isinstance(value, (int, float)) for value in values)
    except (KeyError, TypeError):
        valid = False
    if not valid:
        raise ValueError(
            "histogram state needs numbers for bounds, counts, count, total, min, max"
        )
    return state


class Histogram:
    """Fixed-bucket histogram with percentile estimation.

    ``buckets`` are the finite upper bounds, strictly increasing; an
    implicit overflow bucket catches everything above the last bound.
    Percentiles interpolate linearly inside the winning bucket and are
    clamped to the observed min/max, so a single-sample histogram
    reports that sample exactly and an empty one reports NaN.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "count", "total", "_min", "_max")

    def __init__(
        self,
        name: str,
        labels: dict[str, str],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(buckets, buckets[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {buckets}")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(buckets) + 1)  # +1 = overflow bucket
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        if value != value:
            raise ValueError(f"histogram {self.name} cannot observe NaN")
        index = self._bucket_index(value)
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def _bucket_index(self, value: float) -> int:
        # Linear scan is fine: bucket lists are tens of entries and
        # observations are not on the simulator's innermost hot path.
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                return index
        return len(self.bounds)

    @property
    def mean(self) -> float:
        if self.count == 0:
            return float("nan")
        return self.total / self.count

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (0..100) from the buckets."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return float("nan")
        target = p / 100.0 * self.count
        cumulative = 0.0
        lower = self._min
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            upper = self.bounds[index] if index < len(self.bounds) else self._max
            if cumulative + bucket_count >= target:
                fraction = (target - cumulative) / bucket_count
                estimate = lower + fraction * (upper - lower)
                return min(max(estimate, self._min), self._max)
            cumulative += bucket_count
            lower = upper
        return self._max  # pragma: no cover - p=100 handled in the loop

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
            "p999": self.percentile(99.9),
            "min": self._min if self.count else float("nan"),
            "max": self._max if self.count else float("nan"),
        }

    # ------------------------------------------------------------------
    # Serializable state (trace `run.metrics` records, multi-run merges)
    # ------------------------------------------------------------------
    def state(self) -> dict[str, Any]:
        """JSON-safe snapshot of the histogram's full internal state.

        ``min``/``max`` are ``None`` while the histogram is empty (the
        internal +-inf sentinels are not valid JSON).
        """
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self._min if self.count else None,
            "max": self._max if self.count else None,
        }

    @classmethod
    def from_state(
        cls, state: dict[str, Any], name: str = "", labels: dict[str, str] | None = None
    ) -> "Histogram":
        """Rebuild a histogram from a :meth:`state` dict."""
        bounds = tuple(_checked(state)["bounds"])
        histogram = cls(name, labels or {}, buckets=bounds)
        histogram.merge_state(state)
        return histogram

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Bucket bounds must match exactly — merging differently-shaped
        histograms would silently mis-bucket, so it is an error.
        """
        if tuple(_checked(state)["bounds"]) != self.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ"
            )
        counts = state["counts"]
        if len(counts) != len(self.counts):
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket count differs"
            )
        for index, value in enumerate(counts):
            self.counts[index] += value
        self.count += state["count"]
        self.total += state["total"]
        if state["min"] is not None and state["min"] < self._min:
            self._min = float(state["min"])
        if state["max"] is not None and state["max"] > self._max:
            self._max = float(state["max"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name}{self.labels or ''} n={self.count}>"
