"""Tests for distribution samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.distributions import (
    Constant,
    DiscretizedLogNormal,
    Exponential,
    LogNormal,
    Mixture,
    Sampler,
    Uniform,
    WeightedChoice,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestConstant:
    def test_always_value(self, rng):
        sampler = Constant(3.5)
        assert sampler.sample(rng) == 3.5
        assert (sampler.sample_many(rng, 10) == 3.5).all()
        assert sampler.mean() == 3.5


class TestExponential:
    def test_mean_matches_rate(self, rng):
        sampler = Exponential(rate=0.5)
        samples = sampler.sample_many(rng, 20000)
        assert samples.mean() == pytest.approx(2.0, rel=0.05)
        assert sampler.mean() == 2.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            Exponential(0.0)

    def test_samples_positive(self, rng):
        assert (Exponential(2.0).sample_many(rng, 1000) > 0).all()


class TestLogNormal:
    def test_median_parameterization(self, rng):
        sampler = LogNormal(median=100.0, sigma=1.5)
        samples = sampler.sample_many(rng, 20000)
        assert np.median(samples) == pytest.approx(100.0, rel=0.05)

    def test_analytic_mean(self, rng):
        sampler = LogNormal(median=10.0, sigma=0.5)
        samples = sampler.sample_many(rng, 50000)
        assert samples.mean() == pytest.approx(sampler.mean(), rel=0.05)

    def test_clipping(self, rng):
        sampler = LogNormal(median=1.0, sigma=2.0, low=0.5, high=2.0)
        samples = sampler.sample_many(rng, 1000)
        assert samples.min() >= 0.5
        assert samples.max() <= 2.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LogNormal(median=-1.0, sigma=1.0)
        with pytest.raises(ValueError):
            LogNormal(median=1.0, sigma=-1.0)
        with pytest.raises(ValueError):
            LogNormal(median=1.0, sigma=1.0, low=2.0, high=1.0)

    def test_zero_sigma_is_constant(self, rng):
        sampler = LogNormal(median=5.0, sigma=0.0)
        assert np.allclose(sampler.sample_many(rng, 100), 5.0)


class TestDiscretizedLogNormal:
    def test_integral_samples_with_floor(self, rng):
        sampler = DiscretizedLogNormal(median=2.0, sigma=2.0, low=1)
        samples = sampler.sample_many(rng, 5000)
        assert (samples >= 1).all()
        assert (samples == np.rint(samples)).all()

    def test_high_cap(self, rng):
        sampler = DiscretizedLogNormal(median=100.0, sigma=2.0, low=1, high=500)
        assert sampler.sample_many(rng, 5000).max() <= 500

    def test_heavy_tail_reaches_thousands(self, rng):
        """The Figure 4 property: tasks-per-job tails reach thousands."""
        sampler = DiscretizedLogNormal(median=10, sigma=1.5, low=1, high=20000)
        samples = sampler.sample_many(rng, 100_000)
        assert np.percentile(samples, 99.9) > 500
        assert samples.max() > 1000

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            DiscretizedLogNormal(median=5, sigma=1, low=0)
        with pytest.raises(ValueError):
            DiscretizedLogNormal(median=5, sigma=1, low=10, high=5)


class TestUniformAndChoice:
    def test_uniform_bounds(self, rng):
        sampler = Uniform(2.0, 4.0)
        samples = sampler.sample_many(rng, 1000)
        assert samples.min() >= 2.0 and samples.max() < 4.0
        assert sampler.mean() == 3.0

    def test_weighted_choice_respects_weights(self, rng):
        sampler = WeightedChoice([1.0, 2.0], [0.9, 0.1])
        samples = sampler.sample_many(rng, 10000)
        assert (samples == 1.0).mean() == pytest.approx(0.9, abs=0.02)
        assert sampler.mean() == pytest.approx(1.1)

    def test_weighted_choice_validation(self):
        with pytest.raises(ValueError):
            WeightedChoice([1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            WeightedChoice([], [])
        with pytest.raises(ValueError):
            WeightedChoice([1.0], [-1.0])


class TestMixture:
    def test_mixture_mean(self, rng):
        mixture = Mixture([Constant(0.0), Constant(10.0)], [0.5, 0.5])
        assert mixture.mean() == 5.0
        samples = mixture.sample_many(rng, 10000)
        assert samples.mean() == pytest.approx(5.0, abs=0.3)

    def test_single_component(self, rng):
        mixture = Mixture([Constant(2.0)], [1.0])
        assert mixture.sample(rng) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Mixture([], [])
        with pytest.raises(ValueError):
            Mixture([Constant(1)], [1.0, 2.0])


#: One of each sampler class.
ALL_SAMPLERS = [
    Constant(1.0),
    Exponential(1.0),
    LogNormal(1.0, 1.0),
    DiscretizedLogNormal(2.0, 1.0),
    Uniform(0.0, 1.0),
    WeightedChoice([1.0], [1.0]),
    Mixture([Constant(1.0)], [1.0]),
]


class TestSamplerProtocol:
    @pytest.mark.parametrize("sampler", ALL_SAMPLERS)
    def test_implements_protocol(self, sampler):
        assert isinstance(sampler, Sampler)

    @pytest.mark.parametrize(
        "sampler",
        ALL_SAMPLERS
        + [
            # every draw lands on a bound given as an int
            LogNormal(1.0, 1.0, low=50, high=60),
            LogNormal(1.0, 1.0, low=0, high=1e-9),
            DiscretizedLogNormal(2.0, 1.0, low=50),
            DiscretizedLogNormal(2.0, 1.0, low=1, high=1),
            Mixture([LogNormal(1.0, 1.0), DiscretizedLogNormal(2.0, 1.0)], [1, 1]),
        ],
    )
    def test_sample_returns_builtin_float(self, sampler, rng):
        for _ in range(20):
            assert type(sampler.sample(rng)) is float

    @given(
        median=st.floats(min_value=0.1, max_value=1e4),
        sigma=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_lognormal_samples_always_positive(self, median, sigma):
        rng = np.random.default_rng(0)
        samples = LogNormal(median, sigma).sample_many(rng, 100)
        assert (samples > 0).all()


def _next_draw(rng) -> str:
    """Where the stream stands: equal iff as many bits were consumed."""
    return rng.random().hex()


def _array_lognormal(rng, median, sigma, low, high) -> float:
    """``LogNormal.sample`` as it was: a ``size=1`` array, clipped, indexed."""
    values = rng.lognormal(math.log(median), sigma, size=1)
    if low is not None or high is not None:
        values = np.clip(values, low, high)
    return float(values[0])


def _array_discretized(rng, median, sigma, low, high) -> float:
    """``DiscretizedLogNormal.sample`` as it was: ``np.rint`` on the array."""
    values = np.maximum(np.rint(rng.lognormal(math.log(median), sigma, size=1)), low)
    if high is not None:
        values = np.minimum(values, high)
    return float(values[0])


_bound = st.none() | st.floats(min_value=0.0, max_value=1e3) | st.integers(0, 1000)
#: (low, high), each possibly absent, never crossed.
_bounds = st.tuples(_bound, _bound).map(
    lambda b: b[::-1] if None not in b and b[0] > b[1] else b
)


class TestScalarPathBitForBit:
    """The scalar ``sample`` takes the same bits off the stream and
    returns the same float as the array formulation it replaced."""

    @given(
        median=st.floats(min_value=1e-3, max_value=1e6),
        sigma=st.floats(min_value=0.0, max_value=4.0),
        bounds=_bounds,
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_lognormal(self, median, sigma, bounds, seed):
        low, high = bounds
        sampler = LogNormal(median, sigma, low, high)
        new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            new = sampler.sample(new_rng)
            assert type(new) is float
            assert new.hex() == _array_lognormal(old_rng, median, sigma, low, high).hex()
        assert _next_draw(new_rng) == _next_draw(old_rng)

    @given(
        median=st.floats(min_value=1e-3, max_value=1e6)
        | st.integers(0, 1000).map(lambda k: k + 0.5),
        sigma=st.sampled_from([0.0, 0.0, 0.5, 1.5, 4.0]),
        low=st.integers(1, 50),
        span=st.none() | st.integers(0, 5000),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_discretized(self, median, sigma, low, span, seed):
        high = None if span is None else low + span
        sampler = DiscretizedLogNormal(median, sigma, low, high)
        new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            new = sampler.sample(new_rng)
            assert type(new) is float
            assert new.hex() == _array_discretized(old_rng, median, sigma, low, high).hex()
        assert _next_draw(new_rng) == _next_draw(old_rng)

    @given(
        params=st.lists(
            st.tuples(
                st.floats(min_value=1e-3, max_value=1e6),
                st.floats(min_value=0.0, max_value=4.0),
                _bounds,
            ),
            min_size=1,
            max_size=4,
        ),
        rounds=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_rounds_are_the_scalar_calls_in_order(self, params, rounds, seed):
        samplers = [LogNormal(median, sigma, *bounds) for median, sigma, bounds in params]
        block_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        block = LogNormal.sample_rounds(block_rng, samplers, rounds)
        assert block.shape == (rounds, len(samplers))
        for row in block.tolist():
            assert [value.hex() for value in row] == [
                sampler.sample(scalar_rng).hex() for sampler in samplers
            ]
        assert _next_draw(block_rng) == _next_draw(scalar_rng)

    def test_half_integers_round_to_even(self, rng):
        """``round`` and ``np.rint`` agree where they could differ: sigma 0
        makes every draw ``exp(log(k + 0.5))``, for many k exactly k + 0.5."""
        halves = [
            k for k in range(200) if rng.lognormal(math.log(k + 0.5), 0.0) == k + 0.5
        ]
        assert {k % 2 for k in halves} == {0, 1}
        for k in halves:
            drawn = DiscretizedLogNormal(k + 0.5, 0.0, low=1).sample(rng)
            assert drawn == max(1.0, k + (k % 2)) == _array_discretized(
                rng, k + 0.5, 0.0, 1, None
            )
