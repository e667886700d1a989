"""Tests for the shared machine failure/repair process."""

import numpy as np
import pytest

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.faults.chaos import FailureRepairProcess
from repro.sim import Simulator
from repro.sim.random import derive_seed


def process(sim, state, mtbf=3600.0, repair=100.0, seed=0, **kwargs):
    rng = np.random.default_rng(derive_seed(seed, "machine-failures.0"))
    return FailureRepairProcess(
        sim, state, rng, mtbf=mtbf, repair_time=repair, **kwargs
    )


class TestValidation:
    def test_nonpositive_mtbf_rejected(self, sim, state):
        with pytest.raises(ValueError, match="mtbf"):
            process(sim, state, mtbf=0.0)

    @pytest.mark.parametrize("mtbf", [float("nan"), float("inf")])
    def test_non_finite_mtbf_rejected(self, sim, state, mtbf):
        with pytest.raises(ValueError, match="mtbf must be finite"):
            process(sim, state, mtbf=mtbf)

    def test_nonpositive_repair_time_rejected(self, sim, state):
        with pytest.raises(ValueError, match="repair_time"):
            process(sim, state, repair=-1.0)


class TestFailRepair:
    def test_fail_withholds_all_free_capacity(self, sim, state):
        failed = []
        failures = process(sim, state, on_fail=failed.append)
        failures.fail(0)
        assert failures.is_down(0)
        assert failures.machines_down == 1
        assert failed == [0]
        assert state.free_cpu[0] == 0.0
        assert state.free_mem[0] == 0.0
        assert not state.fits(0, 0.1, 0.1)

    def test_fail_withholds_only_what_is_free(self, sim, state):
        state.claim(0, 1.5, 4.0, 1)
        used_before = state.used_cpu
        failures = process(sim, state)
        failures.fail(0)
        # The running allocation rides out the failure; only the free
        # remainder (4.0 - 1.5 cpu) is withheld on top of it.
        assert state.free_cpu[0] == 0.0
        assert state.used_cpu == pytest.approx(used_before + 2.5)

    def test_double_failure_is_noop(self, sim, state):
        failed = []
        failures = process(sim, state, on_fail=failed.append)
        failures.fail(0)
        used = state.used_cpu
        failures.fail(0)
        assert state.used_cpu == used
        assert failed == [0]
        assert failures.machines_down == 1

    def test_repair_restores_capacity(self, sim, state):
        failures = process(sim, state)
        failures.fail(3)
        failures.repair(3)
        assert not failures.is_down(3)
        assert state.free_cpu[3] == 4.0
        assert state.free_mem[3] == 16.0
        assert state.used_cpu == 0.0

    def test_repair_is_idempotent(self, sim, state):
        failures = process(sim, state)
        failures.fail(3)
        failures.repair(3)
        failures.repair(3)  # second repair must not release again
        assert state.free_cpu[3] == 4.0
        assert state.used_cpu == 0.0

    def test_repair_scheduled_automatically(self, sim, state):
        failures = process(sim, state, repair=100.0)
        failures.fail(2)
        sim.run(until=99.0)
        assert failures.is_down(2)
        sim.run(until=101.0)
        assert not failures.is_down(2)

    def test_observer_hooks_fire(self, sim, state):
        seen = []
        failures = process(
            sim,
            state,
            on_fail=lambda machine: seen.append(("fail", machine)),
            on_repair=lambda machine: seen.append(("repair", machine)),
        )
        failures.fail(5)
        failures.repair(5)
        assert seen == [("fail", 5), ("repair", 5)]


class TestPoissonSchedule:
    def test_start_injects_failures_over_time(self, sim, state):
        failed = []
        failures = process(sim, state, mtbf=600.0, repair=50.0, on_fail=failed.append)
        failures.start(horizon=3600.0)
        sim.run(until=3600.0)
        # 10 machines at mtbf 600 s -> ~60 expected failures in an hour;
        # anything clearly nonzero proves the process is running.
        assert len(failed) > 5

    def test_no_failures_scheduled_past_horizon(self, sim, state):
        failures = process(sim, state, mtbf=60.0, repair=10.0)
        failures.start(horizon=120.0)
        sim.run()
        assert sim.now <= 120.0 + 10.0  # only trailing repairs remain

    def test_same_seed_same_timeline(self):
        def timeline(seed):
            sim = Simulator()
            state = CellState(
                Cell.homogeneous(10, cpu_per_machine=4.0, mem_per_machine=16.0)
            )
            events = []
            failures = process(
                sim,
                state,
                mtbf=600.0,
                repair=120.0,
                seed=seed,
                on_fail=lambda machine: events.append((sim.now, machine)),
            )
            failures.start(horizon=1800.0)
            sim.run()
            return events

        assert timeline(7) == timeline(7)
        assert timeline(7) != timeline(8)
