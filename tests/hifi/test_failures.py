"""Tests for machine-failure injection (extension beyond the paper)."""

import numpy as np
import pytest

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.core.preemption import AllocationLedger
from repro.hifi.failures import MachineFailureInjector
from repro.hifi.replay import HighFidelityConfig, run_hifi
from repro.hifi.trace import synthesize_trace
from tests.conftest import tiny_preset


@pytest.fixture
def state():
    return CellState(Cell.homogeneous(4, cpu_per_machine=4.0, mem_per_machine=16.0))


@pytest.fixture
def ledger(state, sim):
    return AllocationLedger(state, sim)


def injector(sim, state, ledger, mtbf=3600.0, repair=100.0, seed=0):
    return MachineFailureInjector(
        sim, state, ledger, np.random.default_rng(seed), mtbf=mtbf, repair_time=repair
    )


class TestFailureMechanics:
    def test_failure_kills_tasks_and_withholds_capacity(self, sim, state, ledger):
        failures = injector(sim, state, ledger)
        killed_log = []
        ledger.register(
            0, 1.0, 2.0, 3,
            precedence=10,
            duration=10_000.0,
            on_preempt=lambda record, count: killed_log.append(count),
        )
        killed = failures.fail(0)
        assert killed == 3
        assert killed_log == [3]
        assert failures.is_down(0)
        # Nothing fits on a failed machine.
        assert not state.fits(0, 0.1, 0.1)

    def test_repair_restores_capacity(self, sim, state, ledger):
        failures = injector(sim, state, ledger, repair=50.0)
        failures.fail(0)
        sim.run(until=60.0)
        assert not failures.is_down(0)
        assert state.fits(0, 4.0, 16.0)
        assert state.used_cpu == 0.0

    def test_double_failure_is_noop(self, sim, state, ledger):
        failures = injector(sim, state, ledger)
        failures.fail(0)
        assert failures.fail(0) == 0
        assert failures.failures == 1

    def test_repair_is_idempotent(self, sim, state, ledger):
        failures = injector(sim, state, ledger)
        failures.fail(0)
        failures.repair(0)
        failures.repair(0)  # no double release
        assert state.free_cpu[0] == 4.0

    def test_partially_used_machine_fails_cleanly(self, sim, state, ledger):
        failures = injector(sim, state, ledger)
        ledger.register(
            1, 2.0, 4.0, 1, precedence=0, duration=1e6
        )
        failures.fail(1)
        # Victim evicted and the rest withheld: machine fully unusable.
        assert state.free_cpu[1] == 0.0
        failures.repair(1)
        assert state.free_cpu[1] == 4.0

    def test_poisson_process_generates_failures(self, sim, state, ledger):
        failures = injector(sim, state, ledger, mtbf=100.0, repair=10.0)
        failures.start(horizon=1000.0)
        sim.run(until=1000.0)
        # 4 machines / 100 s mtbf ~ 40 failures expected over 1000 s.
        assert failures.failures > 10

    def test_validation(self, sim, state, ledger):
        with pytest.raises(ValueError):
            injector(sim, state, ledger, mtbf=0.0)
        with pytest.raises(ValueError):
            injector(sim, state, ledger, repair=0.0)


class TestFailuresInReplay:
    @pytest.fixture(scope="class")
    def trace(self):
        return synthesize_trace(tiny_preset(num_machines=60), horizon=1800.0, seed=5)

    def test_replay_with_failures_completes(self, trace):
        result = run_hifi(
            HighFidelityConfig(
                trace=trace, seed=0, machine_mtbf=4 * 3600.0, repair_time=300.0
            )
        )
        assert result.jobs_scheduled > 0
        assert result.unscheduled_fraction < 0.1

    def test_paper_claim_failures_add_little_scheduler_load(self, trace):
        """The paper skipped machine failures because "these only
        generate a small load on the scheduler" — verify that claim:
        batch busyness moves only marginally with failures enabled."""
        without = run_hifi(HighFidelityConfig(trace=trace, seed=0))
        with_failures = run_hifi(
            HighFidelityConfig(
                trace=trace, seed=0, machine_mtbf=4 * 3600.0, repair_time=300.0
            )
        )
        assert with_failures.busyness("batch") == pytest.approx(
            without.busyness("batch"), abs=0.05
        )
