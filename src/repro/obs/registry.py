"""A registry of counters, gauges, and fixed-bucket histograms.

The one registry is process-wide (:func:`get_registry`): each run adds
its engine statistics and the sweep supervisor its ``recovery.*``
counts, and the CLI's ``--verbose`` flag reads them back as a flat
snapshot. Metrics are keyed by ``(name, labels)`` — asking twice
returns the same object. :class:`Histogram` also stands alone: the
:class:`~repro.metrics.collector.MetricsCollector` derives its wait
histograms at end of run. They estimate percentiles from fixed bucket
boundaries the way monitoring systems (Prometheus et al.) do, trading
exactness for constant memory.
"""

from __future__ import annotations

import math
from typing import Any, Iterator

#: Default histogram bucket upper bounds (seconds-flavoured, spanning
#: sub-millisecond decision times to multi-hour waits).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)


def _label_suffix(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count (events, tasks, seconds)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}{_label_suffix(self.labels)}={self.value}>"


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def set_max(self, value: float) -> None:
        """Keep the high-water mark across several runs/samples."""
        if value > self.value:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}{_label_suffix(self.labels)}={self.value}>"


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
        histogram = cls(name, labels or {}, buckets=tuple(state["bounds"]))
        histogram.merge_state(state)
        return histogram

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Bucket bounds must match exactly — merging differently-shaped
        histograms would silently mis-bucket, so it is an error.
        """
        if tuple(state["bounds"]) != self.bounds:
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
        return f"<Histogram {self.name}{_label_suffix(self.labels)} n={self.count}>"


class MetricsRegistry:
    """Get-or-create store of named, labeled metrics."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], Any] = {}

    def _get_or_create(self, kind: type, name: str, labels: dict[str, str], **kwargs):
        key = (name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = kind(name, labels, **kwargs)
            self._metrics[key] = metric
        elif type(metric) is not kind:
            raise ValueError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"not {kind.__name__}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: str
    ) -> Histogram:
        if buckets is None:
            return self._get_or_create(Histogram, name, labels)
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self, prefix: str = "") -> dict[str, Any]:
        """Flat ``{qualified-name: value}`` view, optionally filtered.

        Counters and gauges map to their value; histograms map to their
        :meth:`~Histogram.summary` dict.
        """
        out: dict[str, Any] = {}
        for metric in self._metrics.values():
            if prefix and not metric.name.startswith(prefix):
                continue
            qualified = metric.name + _label_suffix(metric.labels)
            if isinstance(metric, Histogram):
                out[qualified] = metric.summary()
            else:
                out[qualified] = metric.value
        return dict(sorted(out.items()))


#: Process-global registry: cheap cross-run accumulation (the CLI's
#: ``--verbose`` sim-stats report reads it).
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """Return the process-global registry."""
    return _GLOBAL


def reset_registry() -> MetricsRegistry:
    """Replace the process-global registry with a fresh one."""
    global _GLOBAL  # omega-lint: disable=GLB001 -- ambient observer: cross-run totals for --verbose only
    _GLOBAL = MetricsRegistry()
    return _GLOBAL


def publish_sim_stats(stats: dict[str, float | int]) -> None:
    """Accumulate one run's engine stats into the global registry.

    Called by the simulation harnesses after each run with
    :meth:`repro.sim.engine.Simulator.stats`; the CLI's ``--verbose``
    flag reads the result back. Commands may run many simulations —
    counters sum over all of them, the peak gauge keeps the maximum.
    """
    registry = get_registry()
    registry.counter("sim.runs").inc()
    registry.counter("sim.events_processed").inc(stats["events_processed"])
    registry.counter("sim.wall_seconds").inc(stats["wall_seconds"])
    registry.gauge("sim.peak_queue_depth").set_max(stats["peak_queue_depth"])
