"""Tests for optimistic-concurrency commit: conflict detection modes and
commit granularity (paper sections 3.4 and 5.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.core.transaction import (
    Claim,
    CommitMode,
    CommitResult,
    ConflictMode,
    commit,
)
from tests.core.cellstate_oracles import state_bits


@pytest.fixture
def state():
    return CellState(Cell.homogeneous(4, cpu_per_machine=4.0, mem_per_machine=16.0))


def claim(machine=0, cpu=1.0, mem=2.0, count=1):
    return Claim(machine=machine, cpu=cpu, mem=mem, count=count)


class TestClaimValidation:
    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            claim(count=0)

    def test_rejects_negative_resources(self):
        with pytest.raises(ValueError):
            claim(cpu=-1.0)

    @pytest.mark.parametrize("cpu, mem", [(float("nan"), 0.1), (0.1, float("nan"))])
    def test_rejects_nan_resources_before_a_commit_can_start(self, state, cpu, mem):
        """A NaN size used to pass ``Claim`` and raise from ``claim_batch``
        mid-commit, with the claims before it already applied."""
        snapshot = state.snapshot()
        before = state_bits(state)
        with pytest.raises(ValueError, match="non-negative"):
            commit(state, [claim(0, 0.5, 0.5), claim(1, cpu, mem)], snapshot)
        assert state_bits(state) == before

    def test_rejects_negative_machine(self, state):
        """``Claim(-1, ...)`` used to commit to the last machine and log
        machine -1."""
        snapshot = state.snapshot()
        before = state_bits(state)
        with pytest.raises(ValueError, match="machine must be >= 0, got -1"):
            commit(state, [claim(machine=-1, cpu=0.5, mem=0.5)], snapshot)
        assert state_bits(state) == before


class TestConflictFreeCommit:
    def test_commit_applies_claims(self, state):
        snapshot = state.snapshot()
        result = commit(state, [claim(0, count=2), claim(1)], snapshot)
        assert result.fully_accepted
        assert result.accepted_tasks == 3
        assert state.free_cpu[0] == 2.0
        assert state.free_cpu[1] == 3.0

    def test_empty_transaction_is_noop(self, state):
        result = commit(state, [], state.snapshot())
        assert result.accepted == ()
        assert not result.conflicted

    def test_commit_bumps_sequence(self, state):
        snapshot = state.snapshot()
        commit(state, [claim(0)], snapshot)
        assert state.seq[0] == 1


class TestFineGrainedConflicts:
    def test_concurrent_fit_is_not_a_conflict(self, state):
        """Fine-grained detection: another scheduler's claim on the same
        machine does not conflict when both still fit."""
        snapshot = state.snapshot()
        commit(state, [claim(0, cpu=1.0, mem=1.0)], state.snapshot())  # intruder
        result = commit(state, [claim(0, cpu=1.0, mem=1.0)], snapshot)
        assert result.fully_accepted

    def test_overcommit_is_a_conflict(self, state):
        snapshot = state.snapshot()
        commit(state, [claim(0, cpu=3.0, mem=3.0)], state.snapshot())  # intruder
        result = commit(state, [claim(0, cpu=3.0, mem=3.0)], snapshot)
        assert result.conflicted
        assert result.accepted_tasks == 0
        assert state.free_cpu[0] == 1.0  # unchanged by the failed claim

    def test_partial_acceptance_at_task_granularity(self, state):
        """Incremental commits accept the tasks that still fit."""
        snapshot = state.snapshot()
        commit(state, [claim(0, cpu=2.0, mem=2.0)], state.snapshot())  # intruder
        result = commit(state, [claim(0, cpu=1.0, mem=1.0, count=4)], snapshot)
        assert result.conflicted
        assert result.accepted_tasks == 2
        assert result.rejected_tasks == 2
        assert state.free_cpu[0] == pytest.approx(0.0)

    def test_other_machines_unaffected_by_one_conflict(self, state):
        snapshot = state.snapshot()
        commit(state, [claim(0, cpu=4.0, mem=4.0)], state.snapshot())  # fill machine 0
        result = commit(state, [claim(0, cpu=1.0, mem=1.0), claim(1)], snapshot)
        assert result.conflicted
        assert result.accepted_tasks == 1
        assert state.free_cpu[1] == 3.0


class TestCoarseGrainedConflicts:
    def test_any_change_is_a_conflict(self, state):
        """Coarse-grained: a sequence-number change rejects the claim
        even though the resources still fit (spurious conflict)."""
        snapshot = state.snapshot()
        commit(state, [claim(0, cpu=0.5, mem=0.5)], state.snapshot())
        result = commit(
            state,
            [claim(0, cpu=0.5, mem=0.5)],
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
            state, [claim(0)], snapshot, conflict_mode=ConflictMode.COARSE
        )
        assert result.conflicted

    def test_untouched_machine_commits_fine(self, state):
        snapshot = state.snapshot()
        commit(state, [claim(0)], state.snapshot())
        result = commit(
            state, [claim(1)], snapshot, conflict_mode=ConflictMode.COARSE
        )
        assert result.fully_accepted

    def test_coarse_conflicts_superset_of_fine(self, state):
        """Anything fine-grained rejects, coarse-grained also rejects."""
        snapshot = state.snapshot()
        commit(state, [claim(0, cpu=4.0, mem=4.0)], state.snapshot())
        fine = commit(
            state,
            [claim(0, cpu=1.0, mem=1.0)],
            snapshot,
            conflict_mode=ConflictMode.FINE,
        )
        assert fine.conflicted  # machine is full: fine rejects too


class TestGangCommit:
    def test_gang_rejects_all_on_any_conflict(self, state):
        snapshot = state.snapshot()
        commit(state, [claim(0, cpu=4.0, mem=4.0)], state.snapshot())
        before_cpu = state.free_cpu.copy()
        result = commit(
            state,
            [claim(0, cpu=1.0, mem=1.0), claim(1), claim(2)],
            snapshot,
            commit_mode=CommitMode.ALL_OR_NOTHING,
        )
        assert result.conflicted
        assert result.accepted == ()
        assert result.rejected_tasks == 3
        assert (state.free_cpu == before_cpu).all()

    def test_gang_accepts_when_everything_fits(self, state):
        snapshot = state.snapshot()
        result = commit(
            state,
            [claim(0), claim(1), claim(2)],
            snapshot,
            commit_mode=CommitMode.ALL_OR_NOTHING,
        )
        assert result.fully_accepted
        assert result.accepted_tasks == 3

    def test_gang_no_partial_claims(self, state):
        """Gang mode never splits a claim."""
        snapshot = state.snapshot()
        commit(state, [claim(0, cpu=2.0, mem=2.0)], state.snapshot())
        result = commit(
            state,
            [claim(0, cpu=1.0, mem=1.0, count=4)],
            snapshot,
            commit_mode=CommitMode.ALL_OR_NOTHING,
        )
        assert result.accepted == ()


class TestCommitResult:
    def test_conflicted_property(self):
        clean = CommitResult(accepted=(claim(),), rejected=())
        dirty = CommitResult(accepted=(), rejected=(claim(),))
        assert not clean.conflicted
        assert dirty.conflicted
        assert clean.fully_accepted
        assert not dirty.fully_accepted


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
            intruder = Claim(machine=0, cpu=0.25, mem=1.0, count=intruder_tasks)
            commit(state, [intruder], state.snapshot())
        ours = Claim(machine=0, cpu=0.25, mem=1.0, count=count)
        result = commit(
            state, [ours], snapshot, conflict_mode=detection, commit_mode=mode
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
            state, [Claim(machine=0, cpu=cpu, mem=1.0, count=count)], snapshot
        )
        if fits:
            assert result.fully_accepted
        else:
            assert result.rejected_tasks > 0
