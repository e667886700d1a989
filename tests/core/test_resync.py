"""Incremental snapshot resync (CellSnapshot.resync) and the release
accounting clamp: delta-synced views must be indistinguishable from
fresh snapshots, and used totals must track capacity - free exactly."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cell
from repro.core.cellstate import DEFAULT_CHANGELOG_CAPACITY, CellSnapshot, CellState
from repro.core.fill import populate
from repro.workload.generator import StandingTasks
from repro.workload.job import JobType


@pytest.fixture
def cell():
    return Cell.homogeneous(6, cpu_per_machine=4.0, mem_per_machine=16.0)


@pytest.fixture
def state(cell):
    return CellState(cell)


def fill(state, count, cpu, mem, seed):
    """``count`` standing tasks of one size, placed by the initial fill."""
    tasks = StandingTasks([cpu] * count, [mem] * count, [1.0] * count, [JobType.BATCH] * count)
    populate(state, tasks, np.random.default_rng(seed))


def assert_snapshots_identical(synced, fresh):
    """Element-wise identity, including seq and version."""
    np.testing.assert_array_equal(synced.free_cpu, fresh.free_cpu)
    np.testing.assert_array_equal(synced.free_mem, fresh.free_mem)
    np.testing.assert_array_equal(synced.seq, fresh.seq)
    assert synced.version == fresh.version


class TestResync:
    def test_snapshot_records_version(self, state):
        assert state.snapshot(0.0).version == 0
        state.claim(0, 1.0, 1.0)
        assert state.version == 1
        assert state.snapshot(0.0).version == 1

    def test_resync_applies_master_changes(self, state):
        view = state.snapshot(0.0)
        state.claim(2, 1.5, 2.0)
        state.claim(4, 0.5, 1.0, count=2)
        state.release(2, 1.5, 2.0)
        view.resync(state)
        assert_snapshots_identical(view, state.snapshot(0.0))

    def test_resync_untouched_view_is_noop(self, state):
        view = state.snapshot(0.0)
        before = view.free_cpu.copy()
        view.resync(state)
        np.testing.assert_array_equal(view.free_cpu, before)
        assert view.version == 0

    def test_resync_updates_time(self, state):
        view = state.snapshot(0.0)
        view.resync(state, time=42.0)
        assert view.time == 42.0
        view.resync(state)
        assert view.time == 42.0  # omitting time leaves it alone

    def test_resync_returns_self(self, state):
        view = state.snapshot(0.0)
        assert view.resync(state) is view

    def test_resync_restores_local_writes(self, state):
        """Planning scratch-writes are rolled back even when the master
        never touched those machines."""
        view = state.snapshot(0.0)
        view.free_cpu[3] = 0.0
        view.free_mem[3] = 0.0
        view.note_local_write(3)
        view.resync(state)
        assert_snapshots_identical(view, state.snapshot(0.0))

    def test_resync_without_note_keeps_local_writes(self, state):
        """Un-registered local writes survive a no-change resync — the
        changelog knows nothing about them (this is why consumers must
        call note_local_write)."""
        view = state.snapshot(0.0)
        view.free_cpu[3] = 0.0
        view.resync(state)
        assert view.free_cpu[3] == 0.0

    def test_resync_after_changelog_overflow_falls_back_to_full(self, cell):
        state = CellState(cell, changelog_capacity=3)
        view = state.snapshot(0.0)
        for _ in range(5):  # more mutations than the changelog holds
            state.claim(0, 0.1, 0.1)
        view.resync(state)
        assert_snapshots_identical(view, state.snapshot(0.0))

    def test_wide_delta_falls_back_to_full(self, state):
        """Touching most of the cell takes the full-copy path; the
        result must still be exact."""
        view = state.snapshot(0.0)
        for machine in range(state.num_machines):
            state.claim(machine, 1.0, 1.0)
        view.resync(state)
        assert_snapshots_identical(view, state.snapshot(0.0))

    def test_resync_ahead_of_master_raises(self, cell):
        stale_state = CellState(cell)
        fresh_state = CellState(cell)
        fresh_state.claim(0, 1.0, 1.0)
        view = fresh_state.snapshot(0.0)
        with pytest.raises(ValueError):
            view.resync(stale_state)

    def test_changelog_capacity_validation(self, cell):
        with pytest.raises(ValueError):
            CellState(cell, changelog_capacity=-1)

    def test_zero_capacity_changelog_always_full_syncs(self, cell):
        state = CellState(cell, changelog_capacity=0)
        view = state.snapshot(0.0)
        state.claim(1, 2.0, 4.0)
        view.resync(state)
        assert_snapshots_identical(view, state.snapshot(0.0))

    def test_changed_since_lists_mutations_oldest_first(self, cell):
        state = CellState(cell, changelog_capacity=4)
        for machine in (0, 1, 2):
            state.claim(machine, 0.1, 0.1)
        assert state.changed_since(0).tolist() == [0, 1, 2]
        assert state.changed_since(3).tolist() == []
        # Whole machines: the fill walks past 0-2 and takes the other
        # three in its shuffled order, which wraps the ring.
        fill(state, 3, 4.0, 16.0, seed=7)
        filled = [m for m in np.random.default_rng(7).permutation(6).tolist() if m > 2]
        state.release(0, 0.1, 0.1)
        assert state.changed_since(3).tolist() == filled + [0]
        assert state.changed_since(5).tolist() == [filled[2], 0]
        assert state.changed_since(2) is None  # 5 mutations ago, 4 kept
        with pytest.raises(ValueError, match="ahead"):
            state.changed_since(8)

    def test_default_capacity(self, state):
        assert state.changelog_capacity == DEFAULT_CHANGELOG_CAPACITY

    def test_repeated_resync_tracks_master(self, state):
        view = state.snapshot(0.0)
        for step in range(4):
            state.claim(step % state.num_machines, 0.5, 0.5)
            view.resync(state)
            assert_snapshots_identical(view, state.snapshot(0.0))


class TestReleaseAccounting:
    def test_clamped_release_keeps_used_consistent(self, state):
        """Regression: when the release clamp trims an overshoot (legal
        up to EPSILON), used totals must shrink by the delta actually
        applied to the free arrays, not the nominal request — otherwise
        they drift from capacity - free.sum() by up to EPSILON per
        clamped release."""
        state.claim(0, 1.0, 1.0)
        state.claim(1, 1.0, 1.0)
        state.release(0, 1.0 + 5e-10, 1.0 + 5e-10)  # clamped to capacity
        assert state.free_cpu[0] == state.cell.cpu_capacity[0]
        assert state.used_cpu == pytest.approx(
            state.cell.cpu_capacity.sum() - state.free_cpu.sum(), abs=1e-12
        )
        assert state.used_mem == pytest.approx(
            state.cell.mem_capacity.sum() - state.free_mem.sum(), abs=1e-12
        )

    def test_dusty_release_cycle_keeps_used_consistent(self, state):
        """Many small claim/release cycles: accounting dust stays at
        float-rounding scale, not EPSILON scale."""
        for _ in range(40):
            state.claim(0, cpu=0.1, mem=0.4)
        for _ in range(40):
            state.release(0, cpu=0.1, mem=0.4)
        assert state.free_cpu[0] == state.cell.cpu_capacity[0]
        assert state.used_cpu == pytest.approx(
            state.cell.cpu_capacity.sum() - state.free_cpu.sum(), abs=1e-12
        )
        assert state.used_cpu == pytest.approx(0.0, abs=1e-12)

    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # machine
                st.floats(min_value=0.05, max_value=1.0),  # cpu
                st.floats(min_value=0.05, max_value=2.0),  # mem
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_used_equals_capacity_minus_free(self, ops):
        """Pin used == capacity - free.sum() through claim/release churn."""
        cell = Cell.homogeneous(4, cpu_per_machine=4.0, mem_per_machine=16.0)
        state = CellState(cell)
        live = []
        for machine, cpu, mem in ops:
            if state.fits(machine, cpu, mem):
                state.claim(machine, cpu, mem)
                live.append((machine, cpu, mem))
            elif live:
                state.release(*live.pop())
        while live:
            state.release(*live.pop())
        assert state.used_cpu == pytest.approx(
            cell.cpu_capacity.sum() - state.free_cpu.sum(), abs=1e-9
        )
        assert state.used_mem == pytest.approx(
            cell.mem_capacity.sum() - state.free_mem.sum(), abs=1e-9
        )


class TestResyncProperty:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["claim", "release", "resync", "local"]),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=1,
            max_size=80,
        ),
        capacity=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_interleaving_matches_fresh_snapshot(self, ops, capacity):
        """Any claim/release/local-write/resync interleaving — including
        changelog overflow with tiny capacities — leaves the view
        element-wise identical to a fresh snapshot after resync."""
        cell = Cell.homogeneous(6, cpu_per_machine=4.0, mem_per_machine=16.0)
        state = CellState(cell, changelog_capacity=capacity)
        view = state.snapshot(0.0)
        claimed = [0] * state.num_machines
        for op, machine in ops:
            if op == "claim" and state.fits(machine, 1.0, 2.0):
                state.claim(machine, 1.0, 2.0)
                claimed[machine] += 1
            elif op == "release" and claimed[machine]:
                state.release(machine, 1.0, 2.0)
                claimed[machine] -= 1
            elif op == "local":
                view.free_cpu[machine] = -1.0
                view.seq[machine] = -1
                view.note_local_write(machine)
            elif op == "resync":
                view.resync(state)
                assert_snapshots_identical(view, state.snapshot(0.0))
        view.resync(state)
        assert_snapshots_identical(view, state.snapshot(0.0))

    def test_long_deltas_across_the_ring_wrap_match_fresh_snapshot(self):
        """On 64 machines a delta of up to 15 entries stays a delta, so
        resyncs here read ``changed_since`` slices that cross the ring's
        wrap point; initial-fill bursts longer than the ring force the
        full copy. Across the examples both branches, and the wrap, must
        be taken."""
        taken = {"full": 0, "delta": 0, "wrap": 0}
        full_sync = CellSnapshot._full_sync

        def counted_full_sync(view, state):
            taken["full"] += 1
            full_sync(view, state)

        machine = st.integers(min_value=0, max_value=63)

        @given(
            # Rounds of mutations, each followed by a resync.
            rounds=st.lists(
                st.lists(
                    st.one_of(
                        st.tuples(st.sampled_from(["claim", "release", "local"]), machine),
                        # A fill of 1-17 tasks, its machine order from a seed.
                        st.tuples(st.just("burst"), st.tuples(st.integers(1, 17), machine)),
                    ),
                    max_size=4,
                ),
                min_size=1,
                max_size=20,
            ),
            capacity=st.integers(min_value=0, max_value=9),
        )
        @settings(max_examples=150, deadline=None)
        def check(rounds, capacity):
            cell = Cell.homogeneous(64, cpu_per_machine=4.0, mem_per_machine=16.0)
            state = CellState(cell, changelog_capacity=capacity)
            view = state.snapshot(0.0)
            claimed = [0] * state.num_machines

            def resync():
                behind = state.version - view.version
                has_work = behind or view._local_dirty
                start = view.version % max(capacity, 1)
                full_before = taken["full"]
                view.resync(state)
                if has_work and taken["full"] == full_before:
                    taken["delta"] += 1
                    taken["wrap"] += start + behind > capacity
                assert_snapshots_identical(view, state.snapshot(0.0))

            for ops in rounds:
                for op, arg in ops:
                    if op == "claim" and claimed[arg] < 100:
                        state.claim(arg, 0.04, 0.16)
                        claimed[arg] += 1
                    elif op == "release" and claimed[arg]:
                        state.release(arg, 0.04, 0.16)
                        claimed[arg] -= 1
                    elif op == "burst":
                        count, seed = arg
                        seq = state.seq.tolist()
                        fill(state, count, 0.04, 0.16, seed)
                        for m, (old, new) in enumerate(zip(seq, state.seq.tolist())):
                            claimed[m] += new - old
                    elif op == "local":
                        view.free_cpu[arg] = -1.0
                        view.seq[arg] = -1
                        view.note_local_write(arg)
                resync()

        with mock.patch.object(CellSnapshot, "_full_sync", counted_full_sync):
            check()
        assert taken["full"] and taken["delta"] and taken["wrap"], taken
