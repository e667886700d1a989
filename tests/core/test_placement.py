"""Tests for randomized first-fit placement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.core.placement import randomized_first_fit


@pytest.fixture
def state():
    return CellState(Cell.homogeneous(5, cpu_per_machine=4.0, mem_per_machine=16.0))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestFirstFit:
    def test_places_all_tasks_when_room(self, state, rng):
        claims = randomized_first_fit(
            state.free_cpu, state.free_mem, 1.0, 2.0, 6, rng
        )
        assert sum(c.count for c in claims) == 6

    def test_one_claim_per_machine(self, state, rng):
        claims = randomized_first_fit(
            state.free_cpu, state.free_mem, 1.0, 2.0, 12, rng
        )
        machines = [c.machine for c in claims]
        assert len(machines) == len(set(machines))

    def test_packs_machines_fully(self, state, rng):
        claims = randomized_first_fit(
            state.free_cpu, state.free_mem, 1.0, 1.0, 4, rng
        )
        # 4 tasks of 1 core fit on a single 4-core machine.
        assert len(claims) == 1
        assert claims.counts[0] == 4

    def test_partial_placement_when_short(self, state, rng):
        # Cell holds 20 cores; 30 one-core tasks cannot all fit.
        claims = randomized_first_fit(
            state.free_cpu, state.free_mem, 1.0, 1.0, 30, rng
        )
        assert sum(c.count for c in claims) == 20

    def test_no_candidates_returns_empty(self, state, rng):
        claims = randomized_first_fit(
            state.free_cpu, state.free_mem, 8.0, 1.0, 1, rng
        )
        assert len(claims) == 0

    def test_does_not_mutate_input_arrays(self, state, rng):
        before = state.free_cpu.copy()
        randomized_first_fit(state.free_cpu, state.free_mem, 1.0, 1.0, 10, rng)
        assert (state.free_cpu == before).all()

    def test_memory_constrains_placement(self, state, rng):
        # Each task needs 8 GB: only 2 fit per 16 GB machine even though
        # CPU would allow 4.
        claims = randomized_first_fit(
            state.free_cpu, state.free_mem, 1.0, 8.0, 10, rng
        )
        assert all(c.count <= 2 for c in claims)
        assert sum(c.count for c in claims) == 10

    def test_randomization_varies_order(self, state):
        picks = set()
        for seed in range(10):
            claims = randomized_first_fit(
                state.free_cpu,
                state.free_mem,
                4.0,
                16.0,
                1,
                np.random.default_rng(seed),
            )
            picks.add(claims.machines[0])
        assert len(picks) > 1  # different seeds pick different machines

    def test_validation(self, state, rng):
        with pytest.raises(ValueError):
            randomized_first_fit(state.free_cpu, state.free_mem, 1.0, 1.0, 0, rng)
        with pytest.raises(ValueError):
            randomized_first_fit(state.free_cpu, state.free_mem, 0.0, 0.0, 1, rng)

    def test_cpu_only_tasks(self, state, rng):
        claims = randomized_first_fit(
            state.free_cpu, state.free_mem, 1.0, 0.0, 4, rng
        )
        assert sum(c.count for c in claims) == 4


class TestFirstFitProperties:
    @given(
        cpu=st.floats(min_value=0.1, max_value=5.0),
        mem=st.floats(min_value=0.1, max_value=20.0),
        num_tasks=st.integers(min_value=1, max_value=100),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_claims_always_fit_their_view(self, cpu, mem, num_tasks, seed):
        """Planned claims never exceed what the view showed — the
        precondition that makes conflict-free commits always succeed."""
        state = CellState(Cell.homogeneous(6, 4.0, 16.0))
        rng = np.random.default_rng(seed)
        claims = randomized_first_fit(
            state.free_cpu, state.free_mem, cpu, mem, num_tasks, rng
        )
        assert sum(c.count for c in claims) <= num_tasks
        for claim in claims:
            assert cpu * claim.count <= state.free_cpu[claim.machine] + 1e-6
            assert mem * claim.count <= state.free_mem[claim.machine] + 1e-6

    @given(
        num_tasks=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_places_maximum_possible(self, num_tasks, seed):
        """First fit with identical tasks is work-conserving: it places
        min(num_tasks, total capacity in task units)."""
        state = CellState(Cell.homogeneous(3, 4.0, 16.0))
        rng = np.random.default_rng(seed)
        claims = randomized_first_fit(
            state.free_cpu, state.free_mem, 1.0, 1.0, num_tasks, rng
        )
        capacity_in_tasks = 12  # 3 machines x 4 one-core slots
        assert sum(c.count for c in claims) == min(num_tasks, capacity_in_tasks)
