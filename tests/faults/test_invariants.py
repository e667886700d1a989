"""Tests for the cell-state invariant checker."""

import numpy as np
import pytest

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.core.preemption import AllocationLedger
from repro.invariants import CellStateInvariantChecker, InvariantViolation


@pytest.fixture
def checker(state):
    return CellStateInvariantChecker([state], raise_on_violation=False)


class TestValidation:
    def test_empty_states_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            CellStateInvariantChecker([])

    def test_negative_tolerance_rejected(self, state):
        with pytest.raises(ValueError, match="tolerance"):
            CellStateInvariantChecker([state], tolerance=-1.0)

    def test_nonpositive_install_interval_rejected(self, sim, state):
        with pytest.raises(ValueError, match="interval"):
            CellStateInvariantChecker([state]).install(sim, interval=0.0)


class TestStateInvariants:
    def test_clean_state_passes(self, state, checker):
        state.claim(0, 2.0, 4.0, 1)
        assert checker.check(now=1.0) == []
        assert checker.checks_run == 1
        assert checker.violations == []

    def test_negative_free_detected(self, state, checker):
        state.free_cpu[2] = -1.0
        found = checker.check()
        assert any("negative free cpu" in v for v in found)
        assert checker.violations == found

    def test_over_capacity_detected(self, state, checker):
        state.free_mem[1] = 100.0  # capacity is 16
        found = checker.check()
        assert any("exceeds capacity" in v for v in found)

    def test_nan_detected(self, state, checker):
        state.free_cpu[0] = np.nan
        found = checker.check()
        assert any("NaN free cpu" in v for v in found)

    def test_aggregate_disagreement_detected(self, state, checker):
        # Shrink a machine's free cpu behind the used-total bookkeeping.
        state.free_cpu[0] -= 2.0
        found = checker.check()
        assert any("disagrees" in v for v in found)

    def test_sequence_regression_detected(self, state, checker):
        state.claim(0, 1.0, 1.0, 1)
        assert checker.check() == []
        state.seq[0] -= 1
        found = checker.check()
        assert any("sequence numbers decreased" in v for v in found)

    def test_version_regression_detected(self, state, checker):
        state.claim(0, 1.0, 1.0, 1)
        assert checker.check() == []
        state.version -= 1
        found = checker.check()
        assert any("version regressed" in v for v in found)

    def test_checks_all_cells(self, state, checker):
        other = CellState(Cell.homogeneous(4, cpu_per_machine=2.0, mem_per_machine=8.0))
        checker = CellStateInvariantChecker([state, other], raise_on_violation=False)
        other.free_cpu[3] = -0.5
        found = checker.check()
        assert any("cell 1" in v for v in found)


class TestLedgerInvariants:
    def test_registered_allocations_agree(self, sim, state):
        ledger = AllocationLedger(state, sim)
        ledger.register(
            0, 1.0, 2.0, 2, precedence=0, duration=100.0
        )
        checker = CellStateInvariantChecker([state], ledger=ledger)
        assert checker.check() == []

    def test_orphaned_record_detected(self, sim, state):
        ledger = AllocationLedger(state, sim)
        record = ledger.register(
            0, 1.0, 2.0, 2, precedence=0, duration=100.0
        )
        record.count = 0  # simulate a bookkeeping bug
        checker = CellStateInvariantChecker(
            [state], ledger=ledger, raise_on_violation=False
        )
        found = checker.check()
        assert any("orphaned record" in v for v in found)

    def test_ledger_exceeding_allocation_detected(self, sim, state):
        ledger = AllocationLedger(state, sim)
        ledger.register(
            0, 2.0, 4.0, 1, precedence=0, duration=100.0
        )
        # Release the resources behind the ledger's back: the ledger now
        # registers more than the cell state says is allocated.
        state.release(0, 2.0, 4.0, 1)
        checker = CellStateInvariantChecker(
            [state], ledger=ledger, raise_on_violation=False
        )
        found = checker.check()
        assert any("ledger" in v for v in found)


class TestModes:
    def test_raise_mode_raises_with_violation_list(self, state):
        checker = CellStateInvariantChecker([state])  # raising is the default
        state.free_cpu[0] = -1.0
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check(now=3.5)
        assert len(excinfo.value.violations) >= 1
        assert "t=3.500" in excinfo.value.violations[0]

    def test_collect_mode_accumulates(self, state, checker):
        state.free_cpu[0] = -1.0
        checker.check()
        checker.check()
        assert checker.checks_run == 2
        assert len(checker.violations) >= 2

    def test_install_checks_continuously(self, sim, state):
        checker = CellStateInvariantChecker([state], raise_on_violation=False)
        checker.install(sim, interval=10.0, horizon=100.0)
        sim.run()
        assert checker.checks_run == 10

    def test_installed_checker_catches_mid_run_corruption(self, sim, state):
        checker = CellStateInvariantChecker([state])
        checker.install(sim, interval=10.0, horizon=100.0)
        sim.at(35.0, lambda: state.free_cpu.__setitem__(0, -5.0))
        with pytest.raises(InvariantViolation):
            sim.run()
