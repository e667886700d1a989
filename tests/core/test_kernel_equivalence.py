"""Differential property tests for the placement kernels, and invariant
property tests for the one commit path.

Every vectorized placement kernel has its pre-vectorization scalar
implementation as an oracle in :mod:`tests.core.placement_oracles`
(``_pack_reference``, ``randomized_first_fit_reference``,
``_ordered_fit_reference``). These tests drive
both sides with Hypothesis-generated cells — deliberately including
EPSILON-boundary free values (``k * demand`` plus sub-EPSILON dust) —
and assert the outputs are *identical*, column for column.

:func:`repro.core.transaction.commit` has no second implementation to
compare against; large transactions (stale snapshots, a contended hot
set, gang aborts) are checked against what any correct commit must
leave behind — a serial application of the accepted plan — and its
accepted counts against the same division done as ``np.float64`` array
arithmetic. A plan naming a machine twice is refused before any write.
Exact float equality below is intentional.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cell
from repro.core.cellstate import EPSILON, CellState
from repro.core.placement import (
    _ordered_fit,
    _pack,
    _stable_prefix,
    randomized_first_fit,
)
from repro.core.transaction import CommitMode, ConflictMode, Plan, commit
from tests.core.cellstate_oracles import state_bits
from tests.core.placement_oracles import (
    _ordered_fit_reference,
    _pack_reference,
    columns,
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
        assert columns(got) == columns(want)

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
            assert columns(got) == columns(want)
            assert got.counts[0] == expected


def _assert_same_plan_and_stream(free_cpu, free_mem, cpu, mem, num_tasks, seed):
    """Kernel and reference return the same plan and leave the
    generator at the same point of its stream."""
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    views = free_cpu.copy(), free_mem.copy()
    got = randomized_first_fit(free_cpu, free_mem, cpu, mem, num_tasks, rng)
    want = randomized_first_fit_reference(
        free_cpu, free_mem, cpu, mem, num_tasks, reference_rng
    )
    assert columns(got) == columns(want)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    # The claimed-only set rests on this: the kernel never writes its views.
    assert np.array_equal(free_cpu, views[0]) and np.array_equal(free_mem, views[1])
    return got


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
        _assert_same_plan_and_stream(free_cpu, free_mem, cpu, mem, num_tasks, seed)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        unit=st.sampled_from(TASK_SIZES[1:]),
        num_tasks=st.integers(1, 64),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_tiny_cells_where_duplicate_draws_are_certain(
        self, seed, n, unit, num_tasks, data
    ):
        # SAMPLE_BLOCK draws over <= 8 machines: every machine comes up
        # many times, claimed and infeasible ones alike.
        free_cpu = np.array([data.draw(_boundary_free(unit)) for _ in range(n)])
        free_mem = np.array([data.draw(_boundary_free(unit)) for _ in range(n)])
        plan = _assert_same_plan_and_stream(
            free_cpu, free_mem, unit, unit, num_tasks, seed
        )
        assert len(set(plan.machines)) == len(plan.machines)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(40, 400),
        full=st.floats(0.95, 1.0),
        num_tasks=st.integers(1, 200),
    )
    @settings(max_examples=120, deadline=None)
    def test_cells_at_least_95_percent_full(self, seed, n, full, num_tasks):
        # Few machines have room, so the sampled blocks rarely finish the
        # job: the shuffled fallback runs whenever demand outlasts them
        # (always, when it exceeds what the cell holds).
        setup = np.random.default_rng(seed ^ 0x5A5A)
        room = setup.random(n) >= full
        free_cpu = np.where(room, 0.5 + setup.random(n) * 2.0, setup.random(n) * 0.4)
        free_mem = np.where(room, 1.0 + setup.random(n) * 4.0, setup.random(n) * 0.9)
        plan = _assert_same_plan_and_stream(free_cpu, free_mem, 0.5, 1.0, num_tasks, seed)
        # Work-conserving: short of num_tasks only when the view lacks room.
        capacity = np.minimum(
            (free_cpu[room] + EPSILON) // 0.5, (free_mem[room] + EPSILON) // 1.0
        ).sum()
        assert plan.tasks == min(num_tasks, int(capacity))

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
        assert columns(plain) == columns(reference)

    @given(
        n=st.integers(1, 48),
        unit=st.sampled_from(TASK_SIZES[1:]),
        num_tasks=st.integers(1, 64),
        descending=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_agree_on_heavy_ties_at_the_fit_boundary(
        self, n, unit, num_tasks, descending, data
    ):
        # Free values are few multiples of the demand plus EPSILON dust,
        # so many machines share a key and the prefix cut lands in ties.
        free_cpu = np.array([data.draw(_boundary_free(unit)) for _ in range(n)])
        free_mem = np.array([data.draw(_boundary_free(unit)) for _ in range(n)])
        rng = np.random.default_rng(0)
        plain = _ordered_fit(free_cpu, free_mem, unit, unit, num_tasks, rng, descending)
        reference = _ordered_fit_reference(
            free_cpu, free_mem, unit, unit, num_tasks, rng, descending
        )
        assert columns(plain) == columns(reference)


class TestStablePrefix:
    """``_stable_prefix`` is an exact prefix of the stable order: the
    ``k`` smallest keys and every tie of the k-th, in argsort order."""

    @given(
        keys=st.lists(st.integers(-3, 3), min_size=1, max_size=60),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_prefix_of_stable_argsort_and_lexsort(self, keys, data):
        keys = np.array(keys, dtype=np.float64)
        n = keys.size
        # k = 1, k on a tie boundary (the end of some key's run), and k >= n.
        boundaries = np.cumsum(np.unique(keys, return_counts=True)[1]).tolist()
        k = data.draw(
            st.one_of(
                st.just(1),
                st.sampled_from(boundaries),
                st.integers(1, n),
                st.integers(n, n + 3),
            )
        )
        prefix = _stable_prefix(keys, k)
        full = np.argsort(keys, kind="stable")
        assert prefix.tolist() == full[: prefix.size].tolist()
        assert prefix.tolist() == np.lexsort((np.arange(n), keys))[: prefix.size].tolist()
        if k >= n:
            assert prefix.size == n
        else:
            # Exactly the keys up to the k-th smallest, ties included.
            kth = np.sort(keys)[k - 1]
            assert prefix.size == int((keys <= kth).sum()) >= k
            if k in boundaries:
                assert prefix.size == k


# ----------------------------------------------------------------------
# Commit: invariants of large transactions
# ----------------------------------------------------------------------
#: Smallest transaction the strategy below generates: "large" here means
#: many machines per plan, which is where most claims are (55-88 % of
#: them on the repo benchmark's workloads).
LARGE_TXN_CLAIMS = 8


@st.composite
def commit_cases(draw):
    n = draw(st.integers(LARGE_TXN_CLAIMS, 24))
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
    # One size per plan, each machine at most once.
    cpu = draw(st.sampled_from(TASK_SIZES))
    mem = draw(st.sampled_from(TASK_SIZES))
    size = draw(st.integers(LARGE_TXN_CLAIMS, min(20, n)))
    machines = draw(st.permutations(range(n)))[:size]
    counts = draw(st.lists(st.integers(1, 6), min_size=size, max_size=size))
    plan = Plan(cpu if cpu or mem else 0.5, mem, machines, counts)
    return n, prefill, perturb, plan


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


class TestCommitInvariants:
    @given(commit_cases())
    @settings(max_examples=150, deadline=None)
    def test_large_transactions_all_modes(self, case):
        n, prefill, perturb, plan = case
        planned_tasks = plan.tasks
        for conflict_mode in ConflictMode:
            for commit_mode in CommitMode:
                state, snapshot = _build(n, prefill, perturb)
                before = _master_copy(state)
                # The same plan naming one of its machines twice is
                # refused before commit can write anything.
                with pytest.raises(ValueError, match="twice"):
                    Plan(plan.cpu, plan.mem, plan.machines + plan.machines[-1:], plan.counts + [1])
                _assert_master_equals(state, before)
                result = commit(
                    state, plan, snapshot, conflict_mode, commit_mode, tracing=True
                )
                events = result.conflicts
                assert result.accepted_tasks + result.rejected_tasks == planned_tasks
                if not result.rejected:
                    assert result.accepted is plan  # no copy
                if commit_mode is CommitMode.ALL_OR_NOTHING and result.rejected:
                    assert len(result.accepted) == 0
                    assert result.rejected is plan
                    assert events  # something caused the abort
                    _assert_master_equals(state, before)
                    continue
                if commit_mode is CommitMode.INCREMENTAL:
                    # Each rejected claim is one conflict, in order.
                    assert [(c.machine, c.count) for c in result.rejected] == [
                        (machine, tasks) for machine, tasks, _ in events
                    ]
                # Master afterwards == master before minus the accepted
                # plan, applied in order with claim()'s dust clamp.
                free_cpu, free_mem, seq, version = before
                for claim in result.accepted:
                    m = claim.machine
                    free_cpu[m] = max(free_cpu[m] - plan.cpu * claim.count, 0.0)
                    free_mem[m] = max(free_mem[m] - plan.mem * claim.count, 0.0)
                    seq[m] += 1
                _assert_master_equals(
                    state, (free_cpu, free_mem, seq, version + len(result.accepted))
                )

    @given(
        unit=st.tuples(st.sampled_from(TASK_SIZES), st.sampled_from(TASK_SIZES)),
        n=st.integers(LARGE_TXN_CLAIMS, 20),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_accepted_counts_match_array_arithmetic(self, unit, n, data):
        # One plan over n machines, each machine's free values sitting
        # on the plan size's EPSILON boundary; every fourth machine is
        # touched after the snapshot so COARSE has something to reject.
        cpu, mem = unit
        plan = Plan(
            cpu if cpu or mem else 0.5,
            mem,
            list(range(n)),
            [data.draw(st.integers(1, 6)) for _ in range(n)],
        )
        targets = [
            (data.draw(_boundary_free(plan.cpu)), data.draw(_boundary_free(plan.mem)))
            for _ in range(n)
        ]
        for conflict_mode in ConflictMode:
            for commit_mode in CommitMode:
                state = CellState(Cell.homogeneous(n, cpu_per_machine=16.0, mem_per_machine=16.0))
                for m, (free_cpu, free_mem) in enumerate(targets):
                    state.claim(m, 16.0 - free_cpu, 16.0 - free_mem, 1)
                snapshot = state.snapshot()
                for m in range(0, n, 4):
                    state.claim(m, 0.0, 0.0, 1)
                # The accepted count per machine, as np.float64 array arithmetic.
                machines = np.array(plan.machines)
                cpu = np.full(n, plan.cpu)
                mem = np.full(n, plan.mem)
                count = np.array(plan.counts)
                with np.errstate(divide="ignore", invalid="ignore"):
                    by_cpu = np.floor_divide(state.free_cpu[machines] + EPSILON, cpu)
                    by_mem = np.floor_divide(state.free_mem[machines] + EPSILON, mem)
                ok = np.minimum(
                    count,
                    np.minimum(np.where(cpu > 0, by_cpu, np.inf), np.where(mem > 0, by_mem, np.inf)),
                ).astype(np.int64)
                if conflict_mode is ConflictMode.COARSE:
                    ok[state.seq[machines] != snapshot.seq[machines]] = 0
                if commit_mode is CommitMode.ALL_OR_NOTHING:
                    ok = np.where(ok < count, 0, ok)
                    if (ok < count).any():
                        ok[:] = 0
                want_accepted = [
                    (c.machine, k) for c, k in zip(plan, ok.tolist()) if k
                ]
                want_rejected = [
                    (c.machine, c.count - k) for c, k in zip(plan, ok.tolist()) if k < c.count
                ]
                result = commit(state, plan, snapshot, conflict_mode, commit_mode)
                assert [(c.machine, c.count) for c in result.accepted] == want_accepted
                assert [(c.machine, c.count) for c in result.rejected] == want_rejected

    def test_gang_abort_leaves_master_untouched(self):
        n = 12
        state = CellState(Cell.homogeneous(n, cpu_per_machine=4.0, mem_per_machine=8.0))
        snapshot = state.snapshot()
        state.claim(3, 1.0, 1.0, 1)  # stale seq on machine 3
        before = state_bits(state)
        plan = Plan(0.5, 0.5, list(range(n)), [2] * n)
        got = commit(
            state,
            plan,
            snapshot,
            ConflictMode.COARSE,
            CommitMode.ALL_OR_NOTHING,
        )
        assert len(got.accepted) == 0
        assert got.rejected is plan
        assert state_bits(state) == before
        assert state.used_cpu == 1.0 and state.used_mem == 1.0

    def test_duplicate_machine_is_refused_before_any_write(self):
        """Two entries on one machine used to pass validation against the
        pre-commit state and then trip ``claim``'s safety net half-way
        through the apply. A plan refuses them at construction."""
        state = CellState(Cell.homogeneous(4, cpu_per_machine=4.0, mem_per_machine=8.0))
        snapshot = state.snapshot()
        before = _master_copy(state)
        bits = state_bits(state)
        # Each entry fits on its own; together they overfill machine 1.
        with pytest.raises(ValueError, match="names machine 1 twice"):
            commit(state, Plan(1.0, 1.0, [0, 1, 2, 1], [1, 3, 1, 3]), snapshot)
        _assert_master_equals(state, before)
        assert state_bits(state) == bits
