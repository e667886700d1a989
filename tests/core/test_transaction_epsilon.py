"""EPSILON-boundary behavior of Transaction commit.

The paper's commit path must agree with ``CellState.fits`` on "a common
notion of whether a machine is full". These tests pin the boundary:
claims landing exactly at capacity, within EPSILON of it, and just
beyond it — under every (ConflictMode, CommitMode) combination.
"""

import pytest

from repro.cluster import Cell
from repro.core.cellstate import EPSILON, CellState
from repro.core.transaction import CommitMode, ConflictMode, Plan, commit

ALL_MODES = [
    (conflict, commit_mode)
    for conflict in ConflictMode
    for commit_mode in CommitMode
]

CPU = 4.0
MEM = 16.0


@pytest.fixture
def state():
    return CellState(Cell.homogeneous(2, cpu_per_machine=CPU, mem_per_machine=MEM))


@pytest.mark.parametrize("conflict_mode,commit_mode", ALL_MODES)
class TestExactCapacity:
    def test_claim_exactly_at_capacity_accepted(self, state, conflict_mode, commit_mode):
        """A claim consuming every last unit must commit in all modes."""
        result = commit(
            state,
            Plan(CPU, MEM, [0], [1]),
            state.snapshot(),
            conflict_mode=conflict_mode,
            commit_mode=commit_mode,
        )
        assert not result.conflicted
        assert state.free_cpu[0] == 0.0
        assert state.free_mem[0] == 0.0

    def test_capacity_split_across_tasks_accepted(self, state, conflict_mode, commit_mode):
        """Four tasks of capacity/4 each fill the machine exactly."""
        result = commit(
            state,
            Plan(CPU / 4, MEM / 4, [0], [4]),
            state.snapshot(),
            conflict_mode=conflict_mode,
            commit_mode=commit_mode,
        )
        assert result.accepted_tasks == 4
        assert state.fits(0, CPU / 4, MEM / 4) is False or state.free_cpu[0] <= EPSILON

    def test_claim_within_epsilon_over_capacity_accepted(
        self, state, conflict_mode, commit_mode
    ):
        """Overshoot below the tolerance is float dust, not overcommit."""
        result = commit(
            state,
            Plan(CPU + EPSILON / 2, MEM, [0], [1]),
            state.snapshot(),
            conflict_mode=conflict_mode,
            commit_mode=commit_mode,
        )
        assert not result.conflicted
        # The clamp keeps the master copy consistent: free never dips
        # below zero even though the claim nominally exceeded capacity.
        assert state.free_cpu[0] == 0.0

    def test_claim_beyond_epsilon_rejected(self, state, conflict_mode, commit_mode):
        """Overshoot above the tolerance is a real conflict in every mode."""
        result = commit(
            state,
            Plan(CPU + 1e-6, MEM, [0], [1]),
            state.snapshot(),
            conflict_mode=conflict_mode,
            commit_mode=commit_mode,
        )
        assert len(result.accepted) == 0
        assert result.conflicted
        assert state.free_cpu[0] == CPU

    def test_mem_boundary_checked_independently(self, state, conflict_mode, commit_mode):
        result = commit(
            state,
            Plan(1.0, MEM + 1e-6, [0], [1]),
            state.snapshot(),
            conflict_mode=conflict_mode,
            commit_mode=commit_mode,
        )
        assert len(result.accepted) == 0


@pytest.mark.parametrize("conflict_mode,commit_mode", ALL_MODES)
class TestEpsilonUnderContention:
    def test_exact_refill_after_partial_use(self, state, conflict_mode, commit_mode):
        """Snapshot, then a competing claim; the EPSILON boundary applies
        to the *live* free amount at commit time."""
        snapshot = state.snapshot()
        # Competing scheduler takes half the machine after our sync.
        state.claim(0, CPU / 2, MEM / 2, 1)
        result = commit(
            state,
            Plan(CPU / 2, MEM / 2, [0], [1]),
            snapshot,
            conflict_mode=conflict_mode,
            commit_mode=commit_mode,
        )
        if conflict_mode is ConflictMode.COARSE:
            # The sequence number moved: spurious conflict by design.
            assert len(result.accepted) == 0
        else:
            # Fine-grained: the remaining half fits exactly.
            assert not result.conflicted
            assert state.free_cpu[0] == 0.0

    def test_over_by_epsilon_under_contention(self, state, conflict_mode, commit_mode):
        snapshot = state.snapshot()
        state.claim(0, CPU / 2, MEM / 2, 1)
        result = commit(
            state,
            Plan(CPU / 2 + EPSILON / 2, MEM / 2, [0], [1]),
            snapshot,
            conflict_mode=conflict_mode,
            commit_mode=commit_mode,
        )
        if conflict_mode is ConflictMode.COARSE:
            assert len(result.accepted) == 0
        else:
            assert not result.conflicted


class TestIncrementalSplitAtBoundary:
    def test_partial_acceptance_counts_epsilon_fits(self, state):
        """Five capacity/4 tasks: exactly four fit; INCREMENTAL splits
        the claim at the boundary, ALL_OR_NOTHING aborts whole."""
        plan = Plan(CPU / 4, MEM / 4, [0], [5])
        incremental = commit(
            state,
            plan,
            state.snapshot(),
            conflict_mode=ConflictMode.FINE,
            commit_mode=CommitMode.INCREMENTAL,
        )
        assert incremental.accepted_tasks == 4
        assert incremental.rejected_tasks == 1

    def test_all_or_nothing_aborts_whole_transaction(self, state):
        plan = Plan(CPU / 4, MEM / 4, [0], [5])
        gang = commit(
            state,
            plan,
            state.snapshot(),
            conflict_mode=ConflictMode.FINE,
            commit_mode=CommitMode.ALL_OR_NOTHING,
        )
        assert len(gang.accepted) == 0
        assert state.free_cpu[0] == CPU  # master copy untouched
