"""Tests for the constraint-aware scoring placer."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster import Cell
from repro.core.cellstate import EPSILON, CellSnapshot, CellState
from repro.core.transaction import Plan
from repro.hifi.constraints import Constraint, ConstraintOp
from repro.hifi.placement import MIN_SERVICE_RACKS, ScoringPlacer
from repro.workload.job import JobType
from tests.conftest import make_job
from tests.core.placement_oracles import columns


@pytest.fixture
def cell():
    return Cell.heterogeneous(
        [
            (8, 4.0, 16.0, {"kernel": "3.2"}),
            (4, 8.0, 32.0, {"kernel": "3.8"}),
        ],
        machines_per_rack=4,
    )


@pytest.fixture
def state(cell):
    return CellState(cell)


@pytest.fixture
def placer(cell):
    return ScoringPlacer(cell)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestConstraintsObeyed:
    def test_constrained_job_lands_on_feasible_machines(self, state, placer, rng):
        job = make_job(
            num_tasks=4,
            cpu=1.0,
            mem=1.0,
            constraints=(Constraint("kernel", ConstraintOp.EQ, "3.8"),),
        )
        claims = placer.place(state.snapshot(), job, rng)
        assert sum(c.count for c in claims) == 4
        assert all(claim.machine >= 8 for claim in claims)  # 3.8 machines

    def test_unsatisfiable_job_gets_nothing(self, state, placer, rng):
        job = make_job(
            num_tasks=1,
            constraints=(Constraint("kernel", ConstraintOp.EQ, "9.9"),),
        )
        assert len(placer.place(state.snapshot(), job, rng)) == 0

    def test_unconstrained_job_uses_whole_cell(self, state, placer, rng):
        job = make_job(num_tasks=30, cpu=1.0, mem=1.0)
        claims = placer.place(state.snapshot(), job, rng)
        assert sum(c.count for c in claims) == 30


class TestScoringBehaviour:
    def test_best_fit_prefers_fuller_machines(self, state, placer, rng):
        """Best-fit: a machine already partially used scores better
        (less normalized leftover) than an empty identical one."""
        state.claim(0, 2.0, 8.0)
        job = make_job(num_tasks=1, cpu=1.0, mem=2.0)
        claims = placer.place(state.snapshot(), job, rng)
        assert claims.machines[0] == 0

    def test_same_seed_is_deterministic(self, cell, placer):
        state = CellState(cell)
        state.claim(3, 2.0, 8.0)
        job_a = make_job(num_tasks=2, cpu=1.0, mem=2.0)
        job_b = make_job(num_tasks=2, cpu=1.0, mem=2.0)
        claims_a = placer.place(state.snapshot(), job_a, np.random.default_rng(1))
        claims_b = placer.place(state.snapshot(), job_b, np.random.default_rng(1))
        assert [c.machine for c in claims_a] == [c.machine for c in claims_b]

    def test_contending_schedulers_overlap_often(self, cell, placer):
        """Different schedulers planning on the same snapshot tend to
        pick overlapping machines — the property that makes the
        high-fidelity simulator see more interference than randomized
        first fit (the small jitter only reorders near-equal scores)."""
        state = CellState(cell)
        for machine in range(6):
            state.claim(machine, 2.0, 8.0)  # make a few machines "best fit"
        job = make_job(num_tasks=4, cpu=1.0, mem=2.0)
        overlaps = 0
        trials = 20
        for seed in range(trials):
            a = placer.place(state.snapshot(), job, np.random.default_rng(seed))
            b = placer.place(
                state.snapshot(), job, np.random.default_rng(seed + 1000)
            )
            if {c.machine for c in a} & {c.machine for c in b}:
                overlaps += 1
        assert overlaps > trials * 0.6

    def test_claims_fit_snapshot(self, state, placer, rng):
        job = make_job(num_tasks=50, cpu=1.0, mem=4.0)
        snapshot = state.snapshot()
        plan = placer.place(snapshot, job, rng)
        for claim in plan:
            assert plan.cpu * claim.count <= snapshot.free_cpu[claim.machine] + 1e-9
            assert plan.mem * claim.count <= snapshot.free_mem[claim.machine] + 1e-9


class TestFailureDomainSpreading:
    def test_service_job_spreads_over_racks(self, state, placer, rng):
        job = make_job(
            job_type=JobType.SERVICE, num_tasks=12, cpu=0.5, mem=0.5
        )
        claims = placer.place(state.snapshot(), job, rng)
        racks = {int(state.cell.racks[c.machine]) for c in claims}
        assert len(racks) >= 3

    def test_batch_job_may_pack_one_machine(self, state, placer, rng):
        job = make_job(job_type=JobType.BATCH, num_tasks=8, cpu=1.0, mem=1.0)
        claims = placer.place(state.snapshot(), job, rng)
        # Batch placement has no spreading cap: machines take multiple
        # tasks, up to capacity minus the 10 % headroom reserve.
        assert max(c.count for c in claims) >= 3

    def test_headroom_reserved(self, state, placer, rng):
        """The placer never packs a machine into its headroom reserve."""
        job = make_job(job_type=JobType.BATCH, num_tasks=200, cpu=1.0, mem=1.0)
        claims = placer.place(state.snapshot(), job, rng)
        for claim in claims:
            capacity = state.cell.cpu_capacity[claim.machine]
            assert claim.count * 1.0 <= capacity * 0.9 + 1e-9

    def test_headroom_validation(self, cell):
        with pytest.raises(ValueError, match="headroom"):
            ScoringPlacer(cell, headroom=1.0)

    def test_service_single_task_fine(self, state, placer, rng):
        job = make_job(job_type=JobType.SERVICE, num_tasks=1)
        claims = placer.place(state.snapshot(), job, rng)
        assert sum(c.count for c in claims) == 1

    def test_placer_is_placementfn_compatible(self, state, placer):
        job = make_job(num_tasks=1)
        via_call = placer(state.snapshot(), job, np.random.default_rng(7))
        via_method = placer.place(state.snapshot(), job, np.random.default_rng(7))
        assert columns(via_call) == columns(via_method)


def place_reference(placer, snapshot, job, rng):
    """The scalar walk ``ScoringPlacer.place`` was before batch jobs went
    through ``_pack``: one Python iteration per candidate for every job,
    batch jobs carrying caps (their own size) that can never bind."""
    cpu, mem = job.cpu_per_task, job.mem_per_task
    fits = (
        placer.index.feasible_mask(job.constraints)
        & (snapshot.free_cpu + EPSILON >= cpu)
        & (snapshot.free_mem + EPSILON >= mem)
    )
    candidates = np.flatnonzero(fits)
    if candidates.size == 0:
        return Plan(cpu, mem, [], [])
    capacity = placer.cell
    scores = (snapshot.free_cpu[candidates] - cpu) / capacity.cpu_capacity[candidates] + (
        snapshot.free_mem[candidates] - mem
    ) / capacity.mem_capacity[candidates]
    scores = scores + rng.uniform(0.0, 0.05, size=scores.shape)
    order = candidates[np.argsort(scores, kind="stable")]

    per_machine_cap = per_rack_cap = remaining = job.unplaced_tasks
    if job.job_type is JobType.SERVICE:
        racks = min(placer._num_racks, max(1, order.size))
        per_rack_cap = max(1, math.ceil(remaining / min(MIN_SERVICE_RACKS, racks)))
        per_machine_cap = max(1, math.ceil(per_rack_cap / 2))
    rack_counts = {}
    machines, counts = [], []
    for machine in order:
        rack = int(capacity.racks[machine])
        rack_room = per_rack_cap - rack_counts.get(rack, 0)
        if rack_room <= 0:
            continue
        count = min(remaining, rack_room, per_machine_cap)
        usable_cpu = snapshot.free_cpu[machine] - capacity.cpu_capacity[machine] * placer.headroom
        usable_mem = snapshot.free_mem[machine] - capacity.mem_capacity[machine] * placer.headroom
        if cpu > 0:
            count = min(count, int((usable_cpu + EPSILON) // cpu))
        if mem > 0:
            count = min(count, int((usable_mem + EPSILON) // mem))
        if count <= 0:
            continue
        machines.append(int(machine))
        counts.append(count)
        rack_counts[rack] = rack_counts.get(rack, 0) + count
        remaining -= count
    return Plan(cpu, mem, machines, counts)


#: Free share of a machine: mostly roomy, with exact 0 (full) and 1 (untouched).
_FRACTION = st.one_of(st.sampled_from([0.0, 1.0, 1.0]), st.floats(0.3, 1.0))

#: Where a machine's ``usable + EPSILON`` lands against ``k * size``:
#: on it, a step either side, or ``usable`` off it by dust below EPSILON.
_EDGES = ("at", "ulp below", "ulp above", "dust below", "dust above")


def _free_on_edge(capacity, headroom, size, k, edge):
    """A free value whose ``usable + EPSILON``, rounded as the placer
    rounds it, sits on the ``edge`` of ``k * size``: the least value at or
    above it ("at"), the nearest values below it and above "at", or
    ``usable`` a quarter EPSILON off ``k * size``. Without headroom these
    are ``k * size`` and one ulp either side; rounding the headroom off
    can make the steps a little coarser."""
    boundary = k * size
    reserve = capacity * headroom
    dust = {"dust below": -EPSILON / 4, "dust above": EPSILON / 4}.get(edge)
    target = boundary if dust is None else (boundary + dust) + EPSILON
    frees = [target - EPSILON + reserve]
    for _ in range(64):
        frees = [math.nextafter(frees[0], -math.inf), *frees, math.nextafter(frees[-1], math.inf)]
    room = {free: (free - reserve) + EPSILON for free in frees}
    if dust is not None:
        return min(frees, key=lambda free: abs(room[free] - target))
    at = min((free for free in frees if room[free] >= boundary), key=room.get)
    if edge == "at":
        return at
    if edge == "ulp below":
        return max((free for free in frees if room[free] < boundary), key=room.get)
    return min((free for free in frees if room[free] > room[at]), key=room.get)


def _on_every_edge(test):
    """Pin the room test on its boundary: every edge, in cpu, mem or
    both, with and without headroom, on six machines that each sit on
    the edge of 1, 2 or 3 tasks. Batch and service jobs take turns, and
    so do jobs that fill those machines and jobs whose best-fit prefix
    holds one or two of them."""
    cases = itertools.product((0.0, 0.1), ("cpu", "mem", "both"), _EDGES)
    for seed, (headroom, dimension, edge) in enumerate(cases):
        test = example(
            free=[(1.0, 1.0)] * 6, machines_per_rack=2, headroom=headroom, cpu=0.3,
            mem=2.0, tasks=(12, 2, 1)[seed % 3], placed=0,
            job_type=(JobType.BATCH, JobType.SERVICE)[seed % 2], picky=False, seed=seed,
            edge=(dimension, edge),
        )(test)
    return test


class TestAgainstScalarReference:
    """``place`` plans what the scalar walk planned, and leaves the
    generator where the walk left it, for batch and service jobs."""

    @settings(max_examples=300, deadline=None)
    # Zero cpu on a machine whose usable cpu is negative under headroom:
    # the room test must skip the zero-size dimension, as the walk does.
    @example(
        free=[(0.0, 1.0)], machines_per_rack=1, headroom=0.1, cpu=0.0, mem=0.0,
        tasks=1, placed=0, job_type=JobType.BATCH, picky=False, seed=0, edge=None,
    )
    @_on_every_edge
    @given(
        free=st.lists(st.tuples(_FRACTION, _FRACTION), min_size=1, max_size=24),
        machines_per_rack=st.integers(1, 6),
        headroom=st.sampled_from([0.0, 0.1, 0.1, 0.5, 0.95]),  # 0.95: usable < 0
        cpu=st.sampled_from([0.0, 0.05, 0.3, 0.5, 1.0, 1.0, 100.0]),  # 100: nothing fits
        mem=st.sampled_from([0.0, 0.25, 1.0, 2.0, 2.0, 1000.0]),
        tasks=st.integers(1, 300),  # up to far beyond what the cell holds
        placed=st.one_of(st.just(0), st.integers(0, 300)),
        job_type=st.sampled_from([JobType.BATCH, JobType.SERVICE]),
        picky=st.sampled_from([False, False, True]),
        seed=st.integers(0, 2**32 - 1),
        edge=st.one_of(
            st.none(),
            st.tuples(st.sampled_from(["cpu", "mem", "both"]), st.sampled_from(_EDGES)),
        ),
    )
    def test_same_claims_and_same_generator_state(
        self, free, machines_per_rack, headroom, cpu, mem, tasks, placed, job_type, picky, seed,
        edge,
    ):
        if cpu == 0.0 and mem == 0.0:
            mem = 0.25  # a task must request something
        small = (len(free) + 1) // 2
        platforms = [(small, 4.0, 16.0, {"kernel": "3.2"})]
        if len(free) > small:
            platforms.append((len(free) - small, 8.0, 32.0, {"kernel": "3.8"}))
        cell = Cell.heterogeneous(platforms, machines_per_rack=machines_per_rack)
        placer = ScoringPlacer(cell, headroom=headroom)
        snapshot = CellSnapshot(
            cell.cpu_capacity * np.array([f[0] for f in free]),
            cell.mem_capacity * np.array([f[1] for f in free]),
            np.zeros(len(free), dtype=np.int64),
            time=0.0,
        )
        if edge is not None:
            # Machine i sits on the edge of 1, 2 or 3 tasks.
            dimension, where = edge
            for name, size, free_now, capacity in (
                ("cpu", cpu, snapshot.free_cpu, cell.cpu_capacity),
                ("mem", mem, snapshot.free_mem, cell.mem_capacity),
            ):
                if size > 0 and dimension in (name, "both"):
                    for i in range(len(free)):
                        free_now[i] = _free_on_edge(
                            float(capacity[i]), headroom, size, 1 + i % 3, where
                        )
        constraints = (Constraint("kernel", ConstraintOp.EQ, "3.8"),) if picky else ()
        job = make_job(
            job_type=job_type, num_tasks=tasks, cpu=cpu, mem=mem, constraints=constraints
        )
        job.unplaced_tasks = max(0, tasks - placed)  # 0: a retry with nothing left

        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        claims = placer.place(snapshot, job, rng)
        assert columns(claims) == columns(
            place_reference(placer, snapshot, job, reference_rng)
        )
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert sum(claim.count for claim in claims) <= job.unplaced_tasks


@settings(max_examples=2000, deadline=None)
@example(a=1.0, size=1.0)
@example(a=math.nextafter(1.0, 0.0), size=1.0)
@example(a=0.3, size=0.1)  # 0.3 / 0.1 rounds to 2.9999999999999996
@example(a=5e-324, size=5e-324)
@example(a=-5e-324, size=1e300)
@example(a=1e308, size=5e-324)  # the quotient overflows to inf
@example(a=-1e308, size=5e-324)
@example(a=-0.0, size=1.0)
@given(
    a=st.floats(allow_nan=False, allow_infinity=False),
    size=st.floats(min_value=0.0, exclude_min=True),
)
def test_room_test_is_a_comparison(a, size):
    """``ScoringPlacer`` and ``_ordered_fit`` test room with ``a >= size``;
    the walk counts tasks with ``a // size``. For every finite ``a`` and
    every ``size > 0`` the two agree on whether one task fits."""
    with np.errstate(all="ignore"):
        assert bool(np.floor_divide(a, size) >= 1) is (a >= size)
    assert (a // size >= 1) is (a >= size)
