"""Tests for populating cell state with standing tasks."""

import dataclasses

import numpy as np
import pytest

from repro.cluster import Cell
from repro.core.cellstate import DEFAULT_CHANGELOG_CAPACITY, EPSILON, CellState
from repro.core.fill import populate
from repro.sim import Simulator
from repro.workload.generator import InitialFill, StandingTasks
from repro.workload.job import JobType
from tests.conftest import tiny_preset
from tests.core.cellstate_oracles import state_bits


def standing(cpu=1.0, mem=2.0, duration=100.0, job_type=JobType.BATCH):
    """One task's row: ``(cpu, mem, duration, job_type)``."""
    return cpu, mem, duration, job_type


def columns(rows) -> StandingTasks:
    """The columns of ``standing`` rows."""
    return StandingTasks(*map(list, zip(*rows)))


@pytest.fixture
def state():
    return CellState(Cell.homogeneous(4, 4.0, 16.0))


class TestPopulate:
    def test_places_all_when_room(self, state):
        placed = populate(state, columns([standing()] * 8), np.random.default_rng(0))
        assert placed == 8
        assert state.used_cpu == 8.0

    def test_stops_when_full(self, state):
        tasks = columns([standing(cpu=4.0, mem=4.0)] * 10)
        placed = populate(state, tasks, np.random.default_rng(0))
        assert placed == 4  # one per machine
        assert state.cpu_utilization == pytest.approx(1.0)

    def test_schedules_releases(self, state):
        sim = Simulator()
        populate(state, columns([standing(duration=50.0)]), np.random.default_rng(0), sim)
        sim.run(until=49.0)
        assert state.used_cpu == 1.0
        sim.run(until=51.0)
        assert state.used_cpu == 0.0

    def test_skips_releases_beyond_horizon(self, state):
        sim = Simulator()
        populate(
            state,
            columns([standing(duration=1000.0), standing(duration=10.0)]),
            np.random.default_rng(0),
            sim,
            horizon=100.0,
        )
        # Only the short task's release is queued.
        assert sim.pending() == 1

    def test_no_sim_no_releases(self, state):
        populate(state, columns([standing()]), np.random.default_rng(0))
        assert state.used_cpu == 1.0  # nothing will ever release it

    def test_empty_tasks(self, state):
        assert populate(state, StandingTasks(), np.random.default_rng(0)) == 0

    def test_mixed_sizes_pack(self, state):
        tasks = columns([standing(cpu=3.0, mem=3.0), standing(cpu=1.0, mem=1.0)] * 4)
        placed = populate(state, tasks, np.random.default_rng(1))
        assert placed == 8
        assert state.used_cpu == 16.0


def index_walk_populate(state, tasks, rng, sim=None, horizon=None) -> int:
    """The oracle: ``populate`` as it was, indexing the NumPy machine
    order, reading ``num_machines`` per step and making one ``claim``
    and one ``sim.at`` per task."""
    order = rng.permutation(state.num_machines)
    cursor = 0
    placed = 0
    for cpu, mem, duration in zip(tasks.cpu, tasks.mem, tasks.duration):
        found = None
        for step in range(state.num_machines):
            machine = order[(cursor + step) % state.num_machines]
            if (
                state.free_cpu[machine] + EPSILON >= cpu
                and state.free_mem[machine] + EPSILON >= mem
            ):
                found = int(machine)
                cursor = (cursor + step) % state.num_machines
                break
        if found is None:
            break
        state.claim(found, cpu, mem, 1)
        placed += 1
        if sim is not None and (horizon is None or duration <= horizon):
            sim.at(duration, state.release, found, cpu, mem, 1)
    return placed


def observed_fill(fill, machine_counts, tasks, seed, horizon):
    """Everything a fill leaves behind, seen through the simulator's
    public calls: the standing population split over one state per
    partition in proportion to its size, one stream and one event queue
    shared, as ``_fill_initial_state`` does. The queue already holds a
    cancelled event and a live probe at t=1800 that records every state
    when it fires. The run is then cut at every task's end time up to
    ``horizon``, and each cut records the clock, ``pending`` and what
    changed in every state since the last cut: ``version`` and the
    changelog order the releases within one instant."""
    rng = np.random.default_rng(seed)
    sim = Simulator()
    states = [CellState(Cell.homogeneous(n, 4.0, 16.0)) for n in machine_counts]
    probe = []
    sim.at(1800.0, lambda: probe.append([state_bits(state) for state in states]))
    sim.cancel(sim.at(900.0, probe.append, "cancelled"))
    placed = []
    start = 0
    for state in states:
        count = round(len(tasks) * state.num_machines / sum(machine_counts))
        placed.append(fill(state, tasks.rows(start, start + count), rng, sim, horizon))
        start += count
    observed = {
        "placed": placed,
        "states": [state_bits(state) for state in states],
        "next_draw": rng.random().hex(),
        "pending": sim.pending(),
        "peak_queue_depth": sim.peak_queue_depth,
    }
    cuts = []
    versions = [state.version for state in states]
    ends = {end for end in tasks.duration if horizon is None or end <= horizon}
    for time in sorted({*ends, 1800.0}):
        sim.run(until=time)
        cuts.append((sim.now.hex(), sim.pending(), list(map(changes, states, versions))))
        versions = [state.version for state in states]
    sim.run()
    observed["cuts"] = cuts
    observed["probe"] = probe
    observed["end"] = [state_bits(state) for state in states]
    observed["left"] = sim.pending()
    return observed


def changes(state, version):
    """What ``state`` changed since ``version``, bit for bit: the
    changelog, the free values of the machines on it, and the used
    totals (``seq`` is a count of the changelog)."""
    machines = state.changed_since(version).tolist()
    return (
        machines,
        [(state.free_cpu[m].hex(), state.free_mem[m].hex()) for m in machines],
        (float(state.used_cpu).hex(), float(state.used_mem).hex()),
    )


def released_at(observed, time):
    """How many releases the run applied at ``time`` exactly."""
    cut = next(cut for cut in observed["cuts"] if cut[0] == time.hex())
    return sum(len(machines) for machines, _, _ in cut[2])


def boundary_tasks(rng, count):
    """Tasks of ``capacity / k`` plus or minus less than EPSILON in each
    dimension, so ``k`` of them land on either side of the fit test and
    of the clamp to zero."""
    rows = []
    for _ in range(count):
        k = int(rng.integers(1, 5))
        cpu_dust, mem_dust = rng.choice([-0.9, -0.4, 0.0, 0.4, 0.9], size=2) * EPSILON
        rows.append(standing(4.0 / k + cpu_dust, 16.0 / k + mem_dust, rng.uniform(1, 99)))
    return columns(rows)


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
        assert all(new["placed"])  # every state took tasks
        assert new["pending"] > 1  # releases queued besides the live event
        assert new["left"] == 0 and new["probe"]

    @pytest.mark.parametrize("seed", range(4))
    def test_cell_that_cannot_hold_the_rest(self, seed):
        # Sized for 40 machines, poured into 8: the walk comes round empty.
        tasks = InitialFill(tiny_preset(), 0.9).generate(np.random.default_rng(seed))
        new = observed_fill(populate, (8,), tasks, seed, 3600.0)
        assert new == observed_fill(index_walk_populate, (8,), tasks, seed, 3600.0)
        assert 0 < new["placed"][0] < len(tasks)

    @pytest.mark.parametrize("seed", range(4))
    def test_equal_release_times_pop_in_task_order(self, seed):
        tasks = InitialFill(tiny_preset(), 0.6).generate(np.random.default_rng(seed))
        # Every third task ends at t=1800, with the event queued before
        # the fill; every other third at t=60.
        tasks = dataclasses.replace(
            tasks,
            duration=[
                (1800.0, 60.0, duration)[i % 3] for i, duration in enumerate(tasks.duration)
            ],
        )
        new = observed_fill(populate, (13, 27), tasks, seed, 3600.0)
        assert new == observed_fill(index_walk_populate, (13, 27), tasks, seed, 3600.0)
        assert released_at(new, 1800.0) > 2 and released_at(new, 60.0) > 2
        assert len(new["probe"]) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_sizes_on_the_epsilon_boundary(self, seed):
        tasks = boundary_tasks(np.random.default_rng(seed), 60)
        new = observed_fill(populate, (6, 10), tasks, seed, None)
        assert new == observed_fill(index_walk_populate, (6, 10), tasks, seed, None)
        # Some machine reads exactly full, by an exact fit or the clamp.
        assert any((0.0).hex() in bits["free_cpu"] for bits in new["states"])

    def test_fill_longer_than_the_changelog(self):
        tasks = InitialFill(tiny_preset(num_machines=1000), 0.6).generate(
            np.random.default_rng(0)
        )
        new = observed_fill(populate, (1000,), tasks, 0, 3600.0)
        assert new == observed_fill(index_walk_populate, (1000,), tasks, 0, 3600.0)
        assert new["states"][0]["version"] > DEFAULT_CHANGELOG_CAPACITY
        assert len(new["states"][0]["changelog"]) == DEFAULT_CHANGELOG_CAPACITY


class TestPopulateRefusesBadSizes:
    @pytest.mark.parametrize(
        "cpu, mem", [(float("nan"), 1.0), (1.0, float("nan")), (-0.5, 1.0), (1.0, -0.5)]
    )
    def test_refused_before_anything_is_written(self, state, cpu, mem):
        sim = Simulator()
        tasks = columns([standing(), standing(), standing(cpu=cpu, mem=mem), standing()])
        before = (state.free_cpu.tobytes(), state.free_mem.tobytes(), state.version)
        with pytest.raises(ValueError, match="standing task 2 "):
            populate(state, tasks, np.random.default_rng(0), sim)
        assert (state.free_cpu.tobytes(), state.free_mem.tobytes(), state.version) == before
        assert state.used_cpu == 0.0 and sim.pending() == 0

    @pytest.mark.parametrize("horizon", [None, 100.0])
    @pytest.mark.parametrize("duration", [float("nan"), -1.0])
    def test_bad_duration_is_refused_before_anything_is_written(
        self, state, duration, horizon
    ):
        # With a horizon, a NaN end is no more "beyond it" than before it.
        sim = Simulator()
        tasks = columns([standing(), standing(duration=duration), standing()])
        with pytest.raises(ValueError, match="standing task 1 "):
            populate(state, tasks, np.random.default_rng(0), sim, horizon)
        assert state.version == 0 and state.used_cpu == 0.0 and sim.pending() == 0

    @pytest.mark.parametrize(
        "bad", [{"cpu": float("nan")}, {"mem": -1.0}, {"duration": float("nan")}]
    )
    def test_bad_task_beyond_a_full_cell_is_not_reached(self, state, bad):
        # Four machine-sized tasks fill the cell, the fifth does not fit,
        # and the walk never reaches the sixth.
        sim = Simulator()
        tasks = columns([standing(cpu=4.0, mem=16.0)] * 5 + [standing(**bad)])
        assert populate(state, tasks, np.random.default_rng(0), sim) == 4
        assert state.cpu_utilization == 1.0 and sim.pending() == 4

    def test_bad_task_that_does_not_fit_is_refused(self, state):
        # The walk reaches the task it stops on, so that one is checked.
        tasks = columns([standing(cpu=4.0, mem=16.0)] * 4 + [standing(cpu=4.0, mem=-1.0)])
        with pytest.raises(ValueError, match="standing task 4 "):
            populate(state, tasks, np.random.default_rng(0), Simulator())
        assert state.version == 0 and state.used_cpu == 0.0
