"""Distribution samplers for synthetic workload generation.

The lightweight simulator is "driven by a workload derived from real
workloads ... we analyze the workloads to obtain distributions of
parameter values such as the number of tasks per job, the task duration,
the per-task resources and job inter-arrival times, and then synthesize
jobs and tasks that conform to these distributions" (paper section 4).
These sampler classes are that distribution vocabulary.

All samplers share a tiny interface: ``sample(rng)`` for one draw,
``sample_many(rng, n)`` for a vector of draws, and ``mean()`` for the
analytic mean where known (used to derive offered-load estimates).
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence, runtime_checkable

import numpy as np


@runtime_checkable
class Sampler(Protocol):
    """Protocol every distribution sampler implements."""

    def sample(self, rng: np.random.Generator) -> float:
        """One draw, always a built-in ``float``."""
        ...

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray: ...

    def mean(self) -> float: ...


class Constant:
    """Degenerate distribution: always ``value``."""

    def __init__(self, value: float) -> None:
        if not -math.inf < value < math.inf:
            raise ValueError(f"value must be a finite number, got {value}")
        self.value = float(value)

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value)

    def mean(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


class Exponential:
    """Exponential distribution with the given ``rate`` (events/second).

    Job arrivals are Poisson processes, so inter-arrival gaps are
    exponential; ``rate`` is the paper's lambda_jobs.
    """

    def __init__(self, rate: float) -> None:
        if not 0 < rate < math.inf:
            raise ValueError(f"rate must be positive and finite, got {rate}")
        self.rate = float(rate)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self.rate))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=n)

    def mean(self) -> float:
        return 1.0 / self.rate

    def __repr__(self) -> str:
        return f"Exponential(rate={self.rate!r})"


class LogNormal:
    """Log-normal distribution parameterized by *median* and *sigma*.

    Medians are the natural way to talk about heavy-tailed cluster
    quantities ("batch jobs have a median runtime of minutes"); sigma is
    the shape parameter of the underlying normal. Optional ``low`` and
    ``high`` clip the samples (e.g. task CPU cannot exceed a machine).
    """

    def __init__(
        self,
        median: float,
        sigma: float,
        low: float | None = None,
        high: float | None = None,
    ) -> None:
        if not 0 < median < math.inf:
            raise ValueError(f"median must be positive and finite, got {median}")
        if not 0 <= sigma < math.inf:
            raise ValueError(f"sigma must be non-negative and finite, got {sigma}")
        # The bounds as floats; an absent one never binds.
        self._floor = -math.inf if low is None else float(low)
        self._ceiling = math.inf if high is None else float(high)
        if not self._floor <= self._ceiling:
            raise ValueError(f"need low <= high, got low={low}, high={high}")
        self.median = float(median)
        self.sigma = float(sigma)
        self.low = low
        self.high = high
        self._mu = math.log(median)

    def sample(self, rng: np.random.Generator) -> float:
        # One float straight from the C generator: the same bits, value
        # and stream position as ``sample_many(rng, 1)[0]``.
        value = rng.lognormal(self._mu, self.sigma)
        if value < self._floor:
            return self._floor
        if value > self._ceiling:
            return self._ceiling
        return value

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.clip(
            rng.lognormal(self._mu, self.sigma, size=n), self._floor, self._ceiling
        )

    @staticmethod
    def sample_rounds(
        rng: np.random.Generator, samplers: Sequence["LogNormal"], rounds: int
    ) -> np.ndarray:
        """``rounds`` rows of one draw from each of ``samplers`` in turn.

        The C generator fills the array element by element, row by row,
        from the bit stream scalar calls read: every value, and where the
        stream stands afterwards, is what ``rounds * len(samplers)``
        ``sample`` calls in that order give.
        """
        block = rng.lognormal(
            [sampler._mu for sampler in samplers],
            [sampler.sigma for sampler in samplers],
            size=(rounds, len(samplers)),
        )
        return np.clip(
            block,
            [sampler._floor for sampler in samplers],
            [sampler._ceiling for sampler in samplers],
        )

    def mean(self) -> float:
        """Analytic mean of the *unclipped* distribution.

        For clipped samplers this is an upper-side approximation; the
        workload-sanity tests use Monte Carlo means where precision
        matters.
        """
        return self.median * math.exp(self.sigma**2 / 2.0)

    def __repr__(self) -> str:
        return (
            f"LogNormal(median={self.median!r}, sigma={self.sigma!r}, "
            f"low={self.low!r}, high={self.high!r})"
        )


class DiscretizedLogNormal:
    """Log-normal rounded to integers >= ``low`` (task counts, worker counts).

    Produces the heavy-tailed tasks-per-job distribution of Figure 4:
    most jobs are small, the 99.9th percentile reaches thousands.
    """

    def __init__(
        self, median: float, sigma: float, low: int = 1, high: int | None = None
    ) -> None:
        self._inner = LogNormal(median, sigma)
        if not 1 <= low < math.inf:
            raise ValueError(f"low must be >= 1 and finite, got {low}")
        if high is not None and not low <= high:
            raise ValueError(f"high={high} < low={low}")
        self.low = int(low)
        self.high = high

    def sample(self, rng: np.random.Generator) -> float:
        # Draws directly (not through ``LogNormal.sample``: one call, one
        # traced span); ``round`` is half-even like ``np.rint``.
        inner = self._inner
        value = max(round(rng.lognormal(inner._mu, inner.sigma)), self.low)
        if self.high is not None and value > self.high:
            value = self.high
        return float(value)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        values = np.rint(self._inner.sample_many(rng, n))
        values = np.maximum(values, self.low)
        if self.high is not None:
            values = np.minimum(values, self.high)
        return values

    def mean(self) -> float:
        return max(float(self.low), self._inner.mean())

    def __repr__(self) -> str:
        return (
            f"DiscretizedLogNormal(median={self._inner.median!r}, "
            f"sigma={self._inner.sigma!r}, low={self.low!r}, high={self.high!r})"
        )


class Uniform:
    """Uniform distribution on ``[low, high)``."""

    def __init__(self, low: float, high: float) -> None:
        if not -math.inf < low <= high < math.inf:
            raise ValueError(f"need finite low <= high, got low={low}, high={high}")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def __repr__(self) -> str:
        return f"Uniform({self.low!r}, {self.high!r})"


class WeightedChoice:
    """Discrete distribution over explicit values with weights.

    Used e.g. for MapReduce configured worker counts, where the paper
    reports frequently observed values of 5, 11, 200 and 1,000.
    """

    def __init__(self, values: Sequence[float], weights: Sequence[float]) -> None:
        if len(values) != len(weights):
            raise ValueError("values and weights must have the same length")
        if not values:
            raise ValueError("need at least one value")
        weight_array = np.asarray(weights, dtype=np.float64)
        if not (weight_array >= 0).all() or not 0 < weight_array.sum() < math.inf:
            raise ValueError("weights must be non-negative, finite and sum to > 0")
        self.values = np.asarray(values, dtype=np.float64)
        self.probabilities = weight_array / weight_array.sum()

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.choice(self.values, p=self.probabilities))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(self.values, p=self.probabilities, size=n)

    def mean(self) -> float:
        return float(np.dot(self.values, self.probabilities))

    def __repr__(self) -> str:
        return f"WeightedChoice(values={self.values.tolist()!r})"


class Mixture:
    """A weighted mixture of component samplers."""

    def __init__(self, components: Sequence[Sampler], weights: Sequence[float]) -> None:
        if len(components) != len(weights):
            raise ValueError("components and weights must have the same length")
        if not components:
            raise ValueError("need at least one component")
        weight_array = np.asarray(weights, dtype=np.float64)
        if not (weight_array >= 0).all() or not 0 < weight_array.sum() < math.inf:
            raise ValueError("weights must be non-negative, finite and sum to > 0")
        self.components = list(components)
        self.probabilities = weight_array / weight_array.sum()

    def sample(self, rng: np.random.Generator) -> float:
        index = int(rng.choice(len(self.components), p=self.probabilities))
        return self.components[index].sample(rng)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        indices = rng.choice(len(self.components), p=self.probabilities, size=n)
        out = np.empty(n, dtype=np.float64)
        for component_index, component in enumerate(self.components):
            mask = indices == component_index
            count = int(mask.sum())
            if count:
                out[mask] = component.sample_many(rng, count)
        return out

    def mean(self) -> float:
        return float(
            sum(
                p * component.mean()
                for p, component in zip(self.probabilities, self.components)
            )
        )

    def __repr__(self) -> str:
        return f"Mixture(components={self.components!r})"
