"""Tests for populating cell state with standing tasks."""

import numpy as np
import pytest

from repro.cluster import Cell
from repro.core.cellstate import EPSILON, CellState
from repro.core.fill import populate
from repro.sim import Simulator
from repro.workload.generator import InitialFill, StandingTask
from repro.workload.job import JobType
from tests.conftest import tiny_preset


def standing(cpu=1.0, mem=2.0, duration=100.0, job_type=JobType.BATCH):
    return StandingTask(cpu=cpu, mem=mem, duration=duration, job_type=job_type)


@pytest.fixture
def state():
    return CellState(Cell.homogeneous(4, 4.0, 16.0))


class TestPopulate:
    def test_places_all_when_room(self, state):
        placed = populate(state, [standing() for _ in range(8)], np.random.default_rng(0))
        assert placed == 8
        assert state.used_cpu == 8.0

    def test_stops_when_full(self, state):
        tasks = [standing(cpu=4.0, mem=4.0) for _ in range(10)]
        placed = populate(state, tasks, np.random.default_rng(0))
        assert placed == 4  # one per machine
        assert state.cpu_utilization == pytest.approx(1.0)

    def test_schedules_releases(self, state):
        sim = Simulator()
        populate(state, [standing(duration=50.0)], np.random.default_rng(0), sim)
        sim.run(until=49.0)
        assert state.used_cpu == 1.0
        sim.run(until=51.0)
        assert state.used_cpu == 0.0

    def test_skips_releases_beyond_horizon(self, state):
        sim = Simulator()
        populate(
            state,
            [standing(duration=1000.0), standing(duration=10.0)],
            np.random.default_rng(0),
            sim,
            horizon=100.0,
        )
        # Only the short task's release is queued.
        assert sim.pending() == 1

    def test_no_sim_no_releases(self, state):
        populate(state, [standing()], np.random.default_rng(0))
        assert state.used_cpu == 1.0  # nothing will ever release it

    def test_empty_tasks(self, state):
        assert populate(state, [], np.random.default_rng(0)) == 0

    def test_mixed_sizes_pack(self, state):
        tasks = [standing(cpu=3.0, mem=3.0), standing(cpu=1.0, mem=1.0)] * 4
        placed = populate(state, tasks, np.random.default_rng(1))
        assert placed == 8
        assert state.used_cpu == 16.0


def index_walk_populate(state, tasks, rng, sim=None, horizon=None) -> int:
    """The oracle: ``populate`` as it was, indexing the NumPy machine
    order and reading ``num_machines`` and the task's fields per step."""
    order = rng.permutation(state.num_machines)
    cursor = 0
    placed = 0
    for task in tasks:
        found = None
        for step in range(state.num_machines):
            machine = order[(cursor + step) % state.num_machines]
            if (
                state.free_cpu[machine] + EPSILON >= task.cpu
                and state.free_mem[machine] + EPSILON >= task.mem
            ):
                found = int(machine)
                cursor = (cursor + step) % state.num_machines
                break
        if found is None:
            break
        state.claim(found, task.cpu, task.mem, 1)
        placed += 1
        if sim is not None and (horizon is None or task.duration <= horizon):
            sim.at(task.duration, state.release, found, task.cpu, task.mem, 1)
    return placed


def observed_fill(fill, machine_counts, tasks, seed, horizon):
    """Everything a fill leaves behind: the standing population split
    over one state per partition in proportion to its size, one stream
    and one event queue shared, as ``_fill_initial_state`` does."""
    rng = np.random.default_rng(seed)
    sim = Simulator()
    states = [CellState(Cell.homogeneous(n, 4.0, 16.0)) for n in machine_counts]
    placed = []
    start = 0
    for state in states:
        count = round(len(tasks) * state.num_machines / sum(machine_counts))
        placed.append(fill(state, tasks[start : start + count], rng, sim, horizon))
        start += count
    queued = sorted(
        (event.time.hex(), event.seq, states.index(event.fn.__self__), repr(event.args))
        for event in sim._queue._heap
    )
    return (
        placed,
        [state.free_cpu.tobytes() for state in states],
        [state.free_mem.tobytes() for state in states],
        [state.seq.tolist() for state in states],
        [state.version for state in states],
        [list(state._changelog) for state in states],
        [(state.used_cpu.hex(), state.used_mem.hex()) for state in states],
        queued,
        rng.random().hex(),
    )


class TestPopulateMatchesIndexWalk:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "machine_counts, utilization, horizon",
        [
            ((40,), 0.5, None),
            ((40,), 0.9, 3600.0),
            ((13, 27), 0.6, 3600.0),  # a partitioned cell: two states
            ((5, 1, 34), 0.6, None),
        ],
    )
    def test_same_state_and_queue(self, machine_counts, utilization, horizon, seed):
        preset = tiny_preset(num_machines=sum(machine_counts))
        tasks = InitialFill(preset, utilization).generate(np.random.default_rng(seed))
        new = observed_fill(populate, machine_counts, tasks, seed, horizon)
        old = observed_fill(index_walk_populate, machine_counts, tasks, seed, horizon)
        assert new == old
        assert all(new[0]) and new[-2]  # every state took tasks; releases queued

    @pytest.mark.parametrize("seed", range(4))
    def test_cell_that_cannot_hold_the_rest(self, seed):
        # Sized for 40 machines, poured into 8: the walk comes round empty.
        tasks = InitialFill(tiny_preset(), 0.9).generate(np.random.default_rng(seed))
        new = observed_fill(populate, (8,), tasks, seed, 3600.0)
        assert new == observed_fill(index_walk_populate, (8,), tasks, seed, 3600.0)
        assert 0 < new[0][0] < len(tasks)
