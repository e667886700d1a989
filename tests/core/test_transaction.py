"""Tests for optimistic-concurrency commit: conflict detection modes and
commit granularity (paper sections 3.4 and 5.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.core.transaction import (
    CommitMode,
    CommitResult,
    ConflictMode,
    Plan,
    commit,
)
from tests.core.cellstate_oracles import state_bits


@pytest.fixture
def state():
    return CellState(Cell.homogeneous(4, cpu_per_machine=4.0, mem_per_machine=16.0))


def claim(machine=0, cpu=1.0, mem=2.0, count=1):
    """A one-machine plan."""
    return Plan(cpu, mem, [machine], [count])


class TestClaimValidation:
    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            claim(count=0)

    def test_rejects_negative_resources(self):
        with pytest.raises(ValueError):
            claim(cpu=-1.0)

    @pytest.mark.parametrize("cpu, mem", [(float("nan"), 0.1), (0.1, float("nan"))])
    def test_rejects_nan_resources_before_a_commit_can_start(self, state, cpu, mem):
        """A NaN size used to pass validation and raise from
        ``claim_batch`` mid-commit, with the claims before it already
        applied; a plan refuses it before a commit can start."""
        before = state_bits(state)
        with pytest.raises(ValueError, match="non-negative"):
            Plan(cpu, mem, [0, 1], [1, 1])
        assert state_bits(state) == before

    def test_rejects_negative_machine(self, state):
        """Machine -1 used to commit to the last machine and log
        machine -1."""
        before = state_bits(state)
        with pytest.raises(ValueError, match="machine must be >= 0, got -1"):
            claim(machine=-1, cpu=0.5, mem=0.5)
        assert state_bits(state) == before

    @pytest.mark.parametrize(
        "cpu, mem, machines, counts, message",
        [
            (float("nan"), 0.5, [0, 1], [1, 1], "finite, non-negative"),
            (0.5, float("nan"), [0, 1], [1, 1], "finite, non-negative"),
            (float("inf"), 0.5, [0, 1], [1, 1], "finite, non-negative"),
            (0.5, float("-inf"), [0, 1], [1, 1], "finite, non-negative"),
            (-0.5, 0.5, [0, 1], [1, 1], "finite, non-negative"),
            (0.5, 0.5, [0, -1], [1, 1], "machine must be >= 0, got -1"),
            (0.5, 0.5, [0, 1], [1, 0], "count must be >= 1, got 0"),
            (0.5, 0.5, [0, 2, 1, 2], [1, 1, 1, 1], "names machine 2 twice"),
            (0.5, 0.5, [0, 1], [1], "2 machines but 1 counts"),
            (1.0, 1.0, [1], [2.5], "must be int, got 2.5"),
            (0.5, 0.5, [0, 0.5], [1, 1], "must be int, got 0.5"),
        ],
    )
    def test_a_bad_plan_is_refused_before_any_write(
        self, state, cpu, mem, machines, counts, message
    ):
        """One ``ValueError`` at construction: no commit, claim_batch or
        release_batch ever sees the plan, so the master is bit-identical."""
        state.claim(3, 1.0, 1.0)
        before = state_bits(state)
        with pytest.raises(ValueError, match=message):
            Plan(cpu, mem, machines, counts)
        assert state_bits(state) == before

    def test_plan_columns_and_rows(self):
        plan = Plan(0.5, 1.0, [4, 0, 2], [1, 3, 2])
        assert len(plan) == 3 and plan.tasks == 6
        assert [(row.machine, row.count) for row in plan] == [(4, 1), (0, 3), (2, 2)]
        empty = Plan(0.5, 1.0, [], [])
        assert len(empty) == 0 and empty.tasks == 0 and list(empty) == []


class TestConflictFreeCommit:
    def test_commit_applies_claims(self, state):
        snapshot = state.snapshot()
        result = commit(state, Plan(1.0, 2.0, [0, 1], [2, 1]), snapshot)
        assert not result.conflicted
        assert result.accepted_tasks == 3
        assert state.free_cpu[0] == 2.0
        assert state.free_cpu[1] == 3.0

    def test_empty_transaction_is_noop(self, state):
        result = commit(state, Plan(1.0, 2.0, [], []), state.snapshot())
        assert len(result.accepted) == 0
        assert not result.conflicted

    def test_commit_bumps_sequence(self, state):
        snapshot = state.snapshot()
        commit(state, claim(0), snapshot)
        assert state.seq[0] == 1


class TestFineGrainedConflicts:
    def test_concurrent_fit_is_not_a_conflict(self, state):
        """Fine-grained detection: another scheduler's claim on the same
        machine does not conflict when both still fit."""
        snapshot = state.snapshot()
        commit(state, claim(0, cpu=1.0, mem=1.0), state.snapshot())  # intruder
        result = commit(state, claim(0, cpu=1.0, mem=1.0), snapshot)
        assert not result.conflicted

    def test_overcommit_is_a_conflict(self, state):
        snapshot = state.snapshot()
        commit(state, claim(0, cpu=3.0, mem=3.0), state.snapshot())  # intruder
        result = commit(state, claim(0, cpu=3.0, mem=3.0), snapshot)
        assert result.conflicted
        assert result.accepted_tasks == 0
        assert state.free_cpu[0] == 1.0  # unchanged by the failed claim

    def test_partial_acceptance_at_task_granularity(self, state):
        """Incremental commits accept the tasks that still fit."""
        snapshot = state.snapshot()
        commit(state, claim(0, cpu=2.0, mem=2.0), state.snapshot())  # intruder
        result = commit(state, claim(0, cpu=1.0, mem=1.0, count=4), snapshot)
        assert result.conflicted
        assert result.accepted_tasks == 2
        assert result.rejected_tasks == 2
        assert state.free_cpu[0] == pytest.approx(0.0)

    def test_other_machines_unaffected_by_one_conflict(self, state):
        snapshot = state.snapshot()
        commit(state, claim(0, cpu=4.0, mem=4.0), state.snapshot())  # fill machine 0
        result = commit(state, Plan(1.0, 1.0, [0, 1], [1, 1]), snapshot)
        assert result.conflicted
        assert result.accepted_tasks == 1
        assert state.free_cpu[1] == 3.0


class TestCoarseGrainedConflicts:
    def test_any_change_is_a_conflict(self, state):
        """Coarse-grained: a sequence-number change rejects the claim
        even though the resources still fit (spurious conflict)."""
        snapshot = state.snapshot()
        commit(state, claim(0, cpu=0.5, mem=0.5), state.snapshot())
        result = commit(
            state,
            claim(0, cpu=0.5, mem=0.5),
            snapshot,
            conflict_mode=ConflictMode.COARSE,
        )
        assert result.conflicted
        assert result.accepted_tasks == 0

    def test_release_also_triggers_coarse_conflict(self, state):
        state.claim(0, 1.0, 1.0)
        snapshot = state.snapshot()
        state.release(0, 1.0, 1.0)  # seq bump via release
        result = commit(
            state, claim(0), snapshot, conflict_mode=ConflictMode.COARSE
        )
        assert result.conflicted

    def test_untouched_machine_commits_fine(self, state):
        snapshot = state.snapshot()
        commit(state, claim(0), state.snapshot())
        result = commit(
            state, claim(1), snapshot, conflict_mode=ConflictMode.COARSE
        )
        assert not result.conflicted

    def test_coarse_conflicts_superset_of_fine(self, state):
        """Anything fine-grained rejects, coarse-grained also rejects."""
        snapshot = state.snapshot()
        commit(state, claim(0, cpu=4.0, mem=4.0), state.snapshot())
        fine = commit(
            state,
            claim(0, cpu=1.0, mem=1.0),
            snapshot,
            conflict_mode=ConflictMode.FINE,
        )
        assert fine.conflicted  # machine is full: fine rejects too


class TestGangCommit:
    def test_gang_rejects_all_on_any_conflict(self, state):
        snapshot = state.snapshot()
        commit(state, claim(0, cpu=4.0, mem=4.0), state.snapshot())
        before_cpu = state.free_cpu.copy()
        result = commit(
            state,
            Plan(1.0, 1.0, [0, 1, 2], [1, 1, 1]),
            snapshot,
            commit_mode=CommitMode.ALL_OR_NOTHING,
        )
        assert result.conflicted
        assert len(result.accepted) == 0
        assert result.rejected_tasks == 3
        assert (state.free_cpu == before_cpu).all()

    def test_gang_accepts_when_everything_fits(self, state):
        snapshot = state.snapshot()
        result = commit(
            state,
            Plan(1.0, 2.0, [0, 1, 2], [1, 1, 1]),
            snapshot,
            commit_mode=CommitMode.ALL_OR_NOTHING,
        )
        assert not result.conflicted
        assert result.accepted_tasks == 3

    def test_gang_no_partial_claims(self, state):
        """Gang mode never splits a claim."""
        snapshot = state.snapshot()
        commit(state, claim(0, cpu=2.0, mem=2.0), state.snapshot())
        result = commit(
            state,
            claim(0, cpu=1.0, mem=1.0, count=4),
            snapshot,
            commit_mode=CommitMode.ALL_OR_NOTHING,
        )
        assert len(result.accepted) == 0


class TestCommitResult:
    def test_conflicted_property(self):
        empty = Plan(1.0, 2.0, [], [])
        clean = CommitResult(accepted=claim(), rejected=empty)
        dirty = CommitResult(accepted=empty, rejected=claim())
        assert not clean.conflicted
        assert dirty.conflicted
        assert (clean.accepted_tasks, clean.rejected_tasks) == (1, 0)
        assert (dirty.accepted_tasks, dirty.rejected_tasks) == (0, 1)


class TestCommitProperties:
    @given(
        intruder_tasks=st.integers(min_value=0, max_value=16),
        count=st.integers(min_value=1, max_value=16),
        mode=st.sampled_from(list(CommitMode)),
        detection=st.sampled_from(list(ConflictMode)),
    )
    @settings(max_examples=200, deadline=None)
    def test_commit_never_overcommits(self, intruder_tasks, count, mode, detection):
        """Whatever the interleaving and modes, the master copy never
        exceeds capacity — the core shared-state safety property."""
        state = CellState(Cell.homogeneous(2, 4.0, 16.0))
        snapshot = state.snapshot()
        if intruder_tasks:
            intruder = claim(0, cpu=0.25, mem=1.0, count=intruder_tasks)
            commit(state, intruder, state.snapshot())
        ours = claim(0, cpu=0.25, mem=1.0, count=count)
        result = commit(
            state, ours, snapshot, conflict_mode=detection, commit_mode=mode
        )
        assert state.free_cpu[0] >= -1e-9
        assert state.free_mem[0] >= -1e-9
        assert result.accepted_tasks + result.rejected_tasks == count

    @given(
        count=st.integers(min_value=1, max_value=8),
        cpu=st.floats(min_value=0.1, max_value=2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_unconflicted_commit_is_exact(self, count, cpu):
        """With no concurrent writer, commits always succeed in full if
        and only if the claim fits."""
        state = CellState(Cell.homogeneous(1, 4.0, 16.0))
        snapshot = state.snapshot()
        fits = cpu * count <= 4.0 + 1e-9 and 1.0 * count <= 16.0
        result = commit(
            state, claim(0, cpu=cpu, mem=1.0, count=count), snapshot
        )
        if fits:
            assert not result.conflicted
        else:
            assert result.rejected_tasks > 0
