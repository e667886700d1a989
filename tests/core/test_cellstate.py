"""Tests for the shared cell state: accounting invariants, snapshots,
sequence numbers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cell
from repro.core.cellstate import CellState, OvercommitError
from repro.core.transaction import Plan
from tests.core.cellstate_oracles import state_bits


@pytest.fixture
def cell():
    return Cell.homogeneous(4, cpu_per_machine=4.0, mem_per_machine=16.0)


@pytest.fixture
def state(cell):
    return CellState(cell)


class TestClaimRelease:
    def test_claim_reduces_free(self, state):
        state.claim(0, cpu=1.0, mem=2.0, count=2)
        assert state.free_cpu[0] == 2.0
        assert state.free_mem[0] == 12.0
        assert state.used_cpu == 2.0
        assert state.used_mem == 4.0

    def test_release_restores_free(self, state):
        state.claim(1, 1.0, 2.0, count=3)
        state.release(1, 1.0, 2.0, count=3)
        assert state.free_cpu[1] == 4.0
        assert state.used_cpu == 0.0

    def test_claim_overcommit_raises(self, state):
        with pytest.raises(OvercommitError):
            state.claim(0, cpu=5.0, mem=1.0)

    def test_claim_overcommit_mem_raises(self, state):
        with pytest.raises(OvercommitError):
            state.claim(0, cpu=1.0, mem=17.0)

    def test_release_beyond_capacity_raises(self, state):
        with pytest.raises(OvercommitError):
            state.release(0, cpu=1.0, mem=1.0)

    def test_exact_fit_allowed(self, state):
        state.claim(0, cpu=4.0, mem=16.0)
        assert state.free_cpu[0] == 0.0
        with pytest.raises(OvercommitError):
            state.claim(0, cpu=0.1, mem=0.1)

    def test_float_dust_tolerated(self, state):
        """Claims summing to capacity within epsilon must succeed."""
        for _ in range(40):
            state.claim(0, cpu=0.1, mem=0.4)
        assert state.free_cpu[0] == pytest.approx(0.0, abs=1e-9)

    def test_count_validation(self, state):
        with pytest.raises(ValueError):
            state.claim(0, 1.0, 1.0, count=0)
        with pytest.raises(ValueError):
            state.release(0, 1.0, 1.0, count=-1)

    @pytest.mark.parametrize(
        "op, args",
        [
            ("claim", (0, -0.5, 0.1)),  # would leave free_cpu[0] == 1.5
            ("release", (1, -0.5, 0.0)),  # would take capacity away
            ("claim", (2, float("nan"), 0.1)),  # would poison free and used
            ("claim", (0, 0.1, -0.5)),
            ("release", (1, 0.0, float("nan"))),
        ],
    )
    def test_negative_and_nan_sizes_raise_before_any_write(self, op, args):
        state = CellState(Cell.homogeneous(3, cpu_per_machine=1.0, mem_per_machine=1.0))
        state.claim(1, 0.5, 0.5)
        before = state_bits(state)
        with pytest.raises(ValueError, match="non-negative"):
            getattr(state, op)(*args)
        assert state_bits(state) == before

    def test_zero_sizes_stay_legal(self, state):
        # FailureRepairProcess.fail withholds whatever is free, which may
        # be 0.0 in one dimension.
        state.claim(0, 4.0, 0.0)
        state.claim(0, 0.0, 16.0)
        state.release(0, 0.0, 16.0)
        assert state.free_cpu[0] == 0.0 and state.free_mem[0] == 16.0
        assert state.seq[0] == 3

    def test_claim_batch_applies_in_order_up_to_the_first_misfit(self, state):
        state.claim(1, 3.5, 1.0)
        plan = Plan(1.0, 2.0, [0, 1, 2], [3, 1, 1])  # machine 1 cannot fit
        with pytest.raises(OvercommitError, match="machine 1"):
            state.claim_batch(plan)
        assert state.free_cpu.tolist() == [1.0, 0.5, 4.0, 4.0]
        assert state.seq.tolist() == [1, 1, 0, 0]
        # The walk's locals are stored even though it raised.
        assert state.version == 2
        assert (state.used_cpu, state.used_mem) == (6.5, 7.0)

    def test_release_batch_matches_release_per_machine(self, state):
        plan = Plan(0.5, 1.5, [3, 0, 2], [2, 1, 4])
        state.claim_batch(plan)
        scalar = CellState(state.cell)
        scalar.claim_batch(plan)
        state.release_batch(plan)
        for machine, count in zip(plan.machines, plan.counts):
            scalar.release(machine, plan.cpu, plan.mem, count)
        assert state_bits(state) == state_bits(scalar)
        assert state.version == 6 and state.used_cpu == 0.0


@st.composite
def release_slices(draw):
    """Rows ``(machine, count, cpu, mem)`` on a 4-machine cell, and where
    an over-capacity row goes into them (``None``: nowhere)."""
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=1, max_value=3),
                st.floats(min_value=0.0, max_value=2.0),
                st.floats(min_value=0.0, max_value=8.0),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return rows, draw(st.none() | st.integers(min_value=0, max_value=len(rows)))


class TestReleaseSlice:
    @given(release_slices())
    @settings(max_examples=200, deadline=None)
    def test_one_walk_equals_one_release_per_row(self, drawn):
        # The initial fill frees a slice of its run in one _release walk
        # over its columns; that must be one release per row, bit for bit.
        rows, over = drawn
        walked, scalar = (CellState(Cell.homogeneous(4, 4.0, 16.0)) for _ in range(2))
        held = []
        for machine, count, cpu, mem in rows:
            if walked.fits(machine, cpu, mem, count):
                walked.claim(machine, cpu, mem, count)
                scalar.claim(machine, cpu, mem, count)
                held.append((machine, count, cpu, mem))
        applied = held
        if over is not None:
            applied = held[: min(over, len(held))]
            held.insert(len(applied), (0, 1, 5.0, 1.0))  # 5 cpu onto a 4-cpu machine
        for machine, count, cpu, mem in applied:
            scalar.release(machine, cpu, mem, count)
        columns = [[row[field] for row in held] for field in range(4)]
        if over is None:
            walked._release(zip(*columns))
        else:
            with pytest.raises(OvercommitError, match="on machine 0 exceeds"):
                walked._release(zip(*columns))
        # Free arrays, used totals, seq, version and changed_since(0).
        assert state_bits(walked) == state_bits(scalar)


class TestSequenceNumbers:
    def test_seq_bumps_on_claim_and_release(self, state):
        assert state.seq[0] == 0
        state.claim(0, 1.0, 1.0)
        assert state.seq[0] == 1
        state.release(0, 1.0, 1.0)
        assert state.seq[0] == 2

    def test_seq_untouched_machines_stable(self, state):
        state.claim(0, 1.0, 1.0)
        assert (state.seq[1:] == 0).all()


class TestSnapshots:
    def test_snapshot_is_independent_copy(self, state):
        snapshot = state.snapshot(time=5.0)
        state.claim(0, 2.0, 4.0)
        assert snapshot.free_cpu[0] == 4.0
        assert snapshot.seq[0] == 0
        assert snapshot.time == 5.0

    def test_mutating_snapshot_does_not_touch_master(self, state):
        snapshot = state.snapshot()
        snapshot.free_cpu[0] = 0.0
        assert state.free_cpu[0] == 4.0

    def test_snapshot_shape(self, state):
        assert state.snapshot().num_machines == state.num_machines


class TestUtilization:
    def test_utilization_fractions(self, state):
        state.claim(0, 4.0, 16.0)
        assert state.cpu_utilization == pytest.approx(0.25)
        assert state.mem_utilization == pytest.approx(0.25)
        assert state.idle_cpu == pytest.approx(12.0)
        assert state.idle_mem == pytest.approx(48.0)

    def test_fits(self, state):
        assert state.fits(0, 4.0, 16.0)
        assert not state.fits(0, 4.1, 1.0)
        state.claim(0, 2.0, 2.0)
        assert state.fits(0, 2.0, 14.0)
        assert not state.fits(0, 2.0, 14.1)
        assert state.fits(0, 1.0, 7.0, count=2)
        assert not state.fits(0, 1.0, 7.0, count=3)


@st.composite
def operations(draw):
    """A random interleaving of claims and releases on a 4-machine cell."""
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.floats(min_value=0.1, max_value=2.0),
                st.floats(min_value=0.1, max_value=4.0),
                st.integers(min_value=1, max_value=3),
            ),
            max_size=50,
        )
    )
    return ops


class TestInvariantsProperty:
    @given(operations())
    @settings(max_examples=100, deadline=None)
    def test_never_overcommitted_and_accounting_consistent(self, ops):
        cell = Cell.homogeneous(4, 4.0, 16.0)
        state = CellState(cell)
        live: list[tuple[int, float, float, int]] = []
        for machine, cpu, mem, count in ops:
            try:
                state.claim(machine, cpu, mem, count)
                live.append((machine, cpu, mem, count))
            except OvercommitError:
                # Rejected claims must not change anything; verified by
                # the invariant checks below.
                pass
            # Invariant: free within [0, capacity].
            assert (state.free_cpu >= -1e-9).all()
            assert (state.free_cpu <= cell.cpu_capacity + 1e-9).all()
            assert (state.free_mem >= -1e-9).all()
            assert (state.free_mem <= cell.mem_capacity + 1e-9).all()
            # Invariant: used totals match the sum of live claims.
            expected_cpu = sum(c * n for _, c, _, n in live)
            assert state.used_cpu == pytest.approx(expected_cpu, abs=1e-6)
        # Releasing everything returns the state to empty.
        for machine, cpu, mem, count in live:
            state.release(machine, cpu, mem, count)
        assert state.used_cpu == pytest.approx(0.0, abs=1e-6)
        assert np.allclose(state.free_cpu, cell.cpu_capacity)
        assert np.allclose(state.free_mem, cell.mem_capacity)

    @given(operations())
    @settings(max_examples=50, deadline=None)
    def test_sequence_numbers_monotonic(self, ops):
        cell = Cell.homogeneous(4, 4.0, 16.0)
        state = CellState(cell)
        previous = state.seq.copy()
        for machine, cpu, mem, count in ops:
            try:
                state.claim(machine, cpu, mem, count)
            except OvercommitError:
                pass
            assert (state.seq >= previous).all()
            previous = state.seq.copy()
