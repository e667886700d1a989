"""Differential property tests for the placement kernels, and invariant
property tests for the one commit path.

Every vectorized placement kernel has its pre-vectorization scalar
implementation as an oracle in :mod:`tests.core.placement_oracles`
(``_pack_reference``, ``randomized_first_fit_reference``,
``_ordered_fit_reference``). These tests drive
both sides with Hypothesis-generated cells — deliberately including
EPSILON-boundary free values (``k * demand`` plus sub-EPSILON dust) —
and assert the outputs are *identical*, claim for claim.

:func:`repro.core.transaction.commit` has no second implementation to
compare against; large transactions (duplicate machines, stale
snapshots, a contended hot set, gang aborts) are checked against what
any correct commit must leave behind. Exact float equality below is
intentional.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cell
from repro.core.cellstate import EPSILON, CellState, OvercommitError
from repro.core.placement import _ordered_fit, _pack, randomized_first_fit
from repro.core.transaction import Claim, CommitMode, ConflictMode, commit
from repro.obs.recorder import TraceRecorder, reset_recorder, set_recorder
from tests.core.placement_oracles import (
    _ordered_fit_reference,
    _pack_reference,
    randomized_first_fit_reference,
)

#: Per-task demands the strategies draw from; 0.0 exercises the
#: "dimension not requested" branches.
TASK_SIZES = (0.0, 0.25, 0.5, 1.0, 1.5)

#: Dust added to exact multiples of the demand so free values straddle
#: the EPSILON fit boundary from both sides.
DUST = (-2.0 * EPSILON, -0.5 * EPSILON, 0.0, 0.5 * EPSILON, 2.0 * EPSILON, 0.07)


@st.composite
def _boundary_free(draw, unit: float) -> float:
    """A free value of ``k * unit`` plus sub-/super-EPSILON dust."""
    step = unit if unit > 0 else 0.25
    value = draw(st.integers(0, 6)) * step + draw(st.sampled_from(DUST))
    return max(0.0, value)


@st.composite
def pack_cases(draw):
    cpu = draw(st.sampled_from(TASK_SIZES))
    mem = draw(st.sampled_from(TASK_SIZES))
    if cpu == 0.0 and mem == 0.0:
        mem = 1.0
    n = draw(st.integers(1, 32))
    free_cpu = np.array([draw(_boundary_free(cpu)) for _ in range(n)])
    free_mem = np.array([draw(_boundary_free(mem)) for _ in range(n)])
    order = draw(st.permutations(list(range(n))))
    candidates = np.array(order[: draw(st.integers(0, n))], dtype=np.intp)
    num_tasks = draw(st.integers(1, 48))
    return free_cpu, free_mem, cpu, mem, candidates, num_tasks


class TestPackEquivalence:
    @given(pack_cases())
    @settings(max_examples=200, deadline=None)
    def test_pack_matches_reference(self, case):
        free_cpu, free_mem, cpu, mem, candidates, num_tasks = case
        got = _pack(candidates, free_cpu, free_mem, cpu, mem, num_tasks)
        want = _pack_reference(candidates, free_cpu, free_mem, cpu, mem, num_tasks)
        assert got == want

    def test_pack_epsilon_boundary_exact(self):
        # free + EPSILON straddles 3 tasks of 0.5: half-EPSILON short
        # still rounds to 3; 2*EPSILON short drops to 2. Both kernels
        # must agree because both divide through the same ufunc.
        for dust, expected in ((-0.5 * EPSILON, 3), (-2.0 * EPSILON, 2)):
            free_cpu = np.array([1.5 + dust])
            free_mem = np.array([8.0])
            candidates = np.arange(1, dtype=np.intp)
            got = _pack(candidates, free_cpu, free_mem, 0.5, 1.0, 5)
            want = _pack_reference(candidates, free_cpu, free_mem, 0.5, 1.0, 5)
            assert got == want
            assert got[0].count == expected


class TestRandomizedFirstFitEquivalence:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 160),
        cpu=st.sampled_from(TASK_SIZES),
        mem=st.sampled_from(TASK_SIZES),
        num_tasks=st.integers(1, 200),
        fill=st.floats(0.0, 1.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_draw_for_draw(self, seed, n, cpu, mem, num_tasks, fill):
        if cpu == 0.0 and mem == 0.0:
            mem = 1.0
        setup = np.random.default_rng(seed ^ 0xA5A5)
        # Mostly-full cells force the exact shuffled fallback; mostly
        # free cells stay on the sampled path.
        free_cpu = np.where(setup.random(n) < fill, setup.random(n) * 4.0, 0.0)
        free_mem = np.where(setup.random(n) < fill, setup.random(n) * 8.0, 0.0)
        got = randomized_first_fit(
            free_cpu, free_mem, cpu, mem, num_tasks, np.random.default_rng(seed)
        )
        want = randomized_first_fit_reference(
            free_cpu, free_mem, cpu, mem, num_tasks, np.random.default_rng(seed)
        )
        assert got == want

    def test_rejects_negative_requests(self):
        free = np.ones(4)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="non-negative"):
            randomized_first_fit(free, free, -1.0, 1.0, 1, rng)
        with pytest.raises(ValueError, match="non-negative"):
            randomized_first_fit_reference(free, free, 1.0, -0.5, 1, rng)


class TestOrderedFitEquivalence:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 96),
        cpu=st.sampled_from(TASK_SIZES),
        mem=st.sampled_from(TASK_SIZES),
        num_tasks=st.integers(1, 64),
        descending=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_plain_and_reference_agree(
        self, seed, n, cpu, mem, num_tasks, descending
    ):
        if cpu == 0.0 and mem == 0.0:
            cpu = 0.5
        setup = np.random.default_rng(seed)
        free_cpu = setup.random(n) * 4.0
        free_mem = setup.random(n) * 8.0
        # Duplicate capacity keys so tie-breaks matter.
        if n >= 4:
            free_cpu[n // 2] = free_cpu[0]
            free_mem[n // 2] = free_mem[0]
        rng = np.random.default_rng(0)
        plain = _ordered_fit(free_cpu, free_mem, cpu, mem, num_tasks, rng, descending)
        reference = _ordered_fit_reference(
            free_cpu, free_mem, cpu, mem, num_tasks, rng, descending
        )
        assert plain == reference


# ----------------------------------------------------------------------
# Commit: invariants of large transactions
# ----------------------------------------------------------------------
#: Smallest transaction the strategy below generates: "large" here means
#: many claims per commit, which is where most claims are (55-88 % of
#: them on the repo benchmark's workloads).
LARGE_TXN_CLAIMS = 8


@st.composite
def commit_cases(draw):
    n = draw(st.integers(2, 24))
    prefill = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.sampled_from((0.5, 1.0)),
                st.sampled_from((0.5, 2.0)),
                st.integers(1, 3),
            ),
            max_size=12,
        )
    )
    # Applied to the master after the snapshot: creates staleness
    # (COARSE conflicts) and shrinks capacity (FINE conflicts).
    perturb = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.sampled_from((0.5, 1.0)),
                st.sampled_from((0.5, 2.0)),
                st.integers(1, 3),
            ),
            max_size=8,
        )
    )
    txn = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),  # duplicates allowed
                st.sampled_from(TASK_SIZES),
                st.sampled_from(TASK_SIZES),
                st.integers(1, 6),
            ),
            min_size=LARGE_TXN_CLAIMS,
            max_size=20,
        )
    )
    claims = [
        Claim(machine=m, cpu=c if c or r else 0.5, mem=r, count=k)
        for m, c, r, k in txn
    ]
    return n, prefill, perturb, claims


def _build(n, prefill, perturb):
    """A (state, snapshot) pair: prefill, snapshot, then perturb."""
    state = CellState(Cell.homogeneous(n, cpu_per_machine=4.0, mem_per_machine=8.0))
    for machine, cpu, mem, count in prefill:
        if state.fits(machine, cpu, mem, count):
            state.claim(machine, cpu, mem, count)
    snapshot = state.snapshot()
    for machine, cpu, mem, count in perturb:
        if state.fits(machine, cpu, mem, count):
            state.claim(machine, cpu, mem, count)
    return state, snapshot


def _master_copy(state: CellState):
    return (
        state.free_cpu.copy(),
        state.free_mem.copy(),
        state.seq.copy(),
        state.version,
    )


def _assert_master_equals(state: CellState, copy) -> None:
    free_cpu, free_mem, seq, version = copy
    assert np.array_equal(state.free_cpu, free_cpu)
    assert np.array_equal(state.free_mem, free_mem)
    assert np.array_equal(state.seq, seq)
    assert state.version == version


def _traced_commit(state, claims, snapshot, conflict_mode, commit_mode):
    """``commit`` under an in-memory recorder: (result or None if the
    apply raised OvercommitError, on_conflict calls, txn.conflict events)."""
    hook_calls = []
    recorder = TraceRecorder()
    set_recorder(recorder)
    try:
        result = commit(
            state,
            claims,
            snapshot,
            conflict_mode,
            commit_mode,
            on_conflict=lambda *call: hook_calls.append(call),
        )
    except OvercommitError:
        result = None
    finally:
        reset_recorder()
    events = [
        (r["fields"]["machine"], r["fields"]["tasks"], r["fields"]["cause"])
        for r in recorder.records
        if r["name"] == "txn.conflict"
    ]
    return result, hook_calls, events


class TestCommitInvariants:
    @given(commit_cases())
    @settings(max_examples=150, deadline=None)
    def test_large_transactions_all_modes(self, case):
        n, prefill, perturb, claims = case
        planned_tasks = sum(claim.count for claim in claims)
        for conflict_mode in ConflictMode:
            for commit_mode in CommitMode:
                state, snapshot = _build(n, prefill, perturb)
                before = _master_copy(state)
                result, hook_calls, events = _traced_commit(
                    state, claims, snapshot, conflict_mode, commit_mode
                )
                # The predictor feed and the trace say the same thing.
                assert hook_calls == events
                if result is None:
                    # Claims are validated one by one against pre-commit
                    # state, so only two claims on one machine can pass
                    # validation and still trip claim()'s safety net.
                    assert len({claim.machine for claim in claims}) < len(claims)
                    assert (state.free_cpu >= 0.0).all()
                    assert (state.free_mem >= 0.0).all()
                    continue
                assert result.accepted_tasks + result.rejected_tasks == planned_tasks
                if commit_mode is CommitMode.ALL_OR_NOTHING and result.rejected:
                    assert result.accepted == ()
                    assert result.rejected == tuple(claims)
                    assert hook_calls  # something caused the abort
                    _assert_master_equals(state, before)
                    continue
                if commit_mode is CommitMode.INCREMENTAL:
                    # Every rejected task is reported to the hook once.
                    assert result.rejected_tasks == sum(c[1] for c in hook_calls)
                # Master afterwards == master before minus the accepted
                # claims, applied in order with claim()'s dust clamp.
                free_cpu, free_mem, seq, version = before
                for claim in result.accepted:
                    m = claim.machine
                    free_cpu[m] = max(free_cpu[m] - claim.cpu * claim.count, 0.0)
                    free_mem[m] = max(free_mem[m] - claim.mem * claim.count, 0.0)
                    seq[m] += 1
                _assert_master_equals(
                    state, (free_cpu, free_mem, seq, version + len(result.accepted))
                )

    def test_gang_abort_leaves_master_untouched(self):
        n = 12
        state = CellState(Cell.homogeneous(n, cpu_per_machine=4.0, mem_per_machine=8.0))
        snapshot = state.snapshot()
        state.claim(3, 1.0, 1.0, 1)  # stale seq on machine 3
        before = _master_copy(state)
        changelog = list(state._changelog)
        claims = [Claim(machine=m, cpu=0.5, mem=0.5, count=2) for m in range(n)]
        got = commit(
            state,
            claims,
            snapshot,
            ConflictMode.COARSE,
            CommitMode.ALL_OR_NOTHING,
        )
        assert got.accepted == ()
        assert got.rejected == tuple(claims)
        _assert_master_equals(state, before)
        assert list(state._changelog) == changelog
        assert state.used_cpu == 1.0 and state.used_mem == 1.0
