"""Tests for the best-fit / worst-fit placement strategies and registry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.core.placement import (
    PLACEMENT_STRATEGIES,
    best_fit,
    placement_fn,
    randomized_first_fit,
    worst_fit,
)
from tests.conftest import make_job


@pytest.fixture
def state():
    state = CellState(Cell.homogeneous(3, cpu_per_machine=4.0, mem_per_machine=16.0))
    state.claim(0, 3.0, 3.0)  # machine 0: fullest
    state.claim(1, 1.0, 1.0)  # machine 1: middling
    return state  # machine 2: empty


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestOrderedStrategies:
    def test_best_fit_prefers_fullest(self, state, rng):
        claims = best_fit(state.free_cpu, state.free_mem, 1.0, 1.0, 1, rng)
        assert claims.machines[0] == 0

    def test_worst_fit_prefers_emptiest(self, state, rng):
        claims = worst_fit(state.free_cpu, state.free_mem, 1.0, 1.0, 1, rng)
        assert claims.machines[0] == 2

    def test_best_fit_spills_over_in_fullness_order(self, state, rng):
        claims = best_fit(state.free_cpu, state.free_mem, 1.0, 1.0, 5, rng)
        machines = [claim.machine for claim in claims]
        assert machines == [0, 1, 2]

    def test_strategies_place_same_totals(self, state, rng):
        """Order affects *where*, not *how much*, for identical tasks."""
        totals = set()
        for strategy in (randomized_first_fit, best_fit, worst_fit):
            claims = strategy(
                state.free_cpu, state.free_mem, 1.0, 1.0, 20, np.random.default_rng(1)
            )
            totals.add(sum(claim.count for claim in claims))
        assert len(totals) == 1

    @given(
        num_tasks=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_ordered_claims_always_fit_view(self, num_tasks, seed):
        state = CellState(Cell.homogeneous(4, 4.0, 16.0))
        rng = np.random.default_rng(seed)
        for strategy in (best_fit, worst_fit):
            for claim in strategy(
                state.free_cpu, state.free_mem, 1.0, 2.0, num_tasks, rng
            ):
                assert 1.0 * claim.count <= state.free_cpu[claim.machine] + 1e-9

    def test_validation(self, state, rng):
        with pytest.raises(ValueError):
            best_fit(state.free_cpu, state.free_mem, 0.0, 0.0, 1, rng)
        with pytest.raises(ValueError):
            worst_fit(state.free_cpu, state.free_mem, 1.0, 1.0, 0, rng)

    def test_no_candidates(self, state, rng):
        assert len(best_fit(state.free_cpu, state.free_mem, 99.0, 1.0, 1, rng)) == 0


class TestRegistry:
    def test_registry_names(self):
        assert set(PLACEMENT_STRATEGIES) == {
            "random-first-fit",
            "best-fit",
            "worst-fit",
        }

    def test_placement_fn_wraps_strategy(self, state, rng):
        fn = placement_fn("best-fit")
        job = make_job(num_tasks=1, cpu=1.0, mem=1.0)
        claims = fn(state.snapshot(), job, rng)
        assert claims.machines[0] == 0

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown placement strategy"):
            placement_fn("quantum-fit")

    def test_harness_rejects_unknown_strategy(self):
        from repro.experiments.common import LightweightConfig, LightweightSimulation
        from tests.conftest import tiny_preset

        config = LightweightConfig(
            preset=tiny_preset(), placement_strategy="quantum-fit"
        )
        with pytest.raises(ValueError, match="unknown placement strategy"):
            LightweightSimulation(config).build()
