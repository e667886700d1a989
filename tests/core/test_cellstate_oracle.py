"""Differential property test: :meth:`CellState.claim` / ``release``, and
``claim_batch`` / ``release_batch``, against their boxed-scalar oracles in
:mod:`tests.core.cellstate_oracles`.

Random interleavings of claims, releases, misfits and over-releases —
with sizes built so free and used amounts sit on the EPSILON boundary
(``k * demand`` plus sub-/super-EPSILON dust, as
``test_kernel_equivalence.py`` builds them) — go through both. After
every call the two states must be bit-identical (``float.hex`` of every
free value and of the used totals, ``seq``, ``version``, changelog), and
a raise must be the same exception with the same message.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.core.transaction import Plan
from tests.core.cellstate_oracles import (
    batch_reference,
    claim_reference,
    release_reference,
    state_bits,
)
from tests.core.test_kernel_equivalence import DUST, TASK_SIZES

#: Two machine classes, so release reads per-machine capacities.
PLATFORMS = ((3, 4.0, 8.0, {}), (3, 2.5, 16.0, {}))
NUM_MACHINES = sum(count for count, _, _, _ in PLATFORMS)

_machine = st.integers(0, NUM_MACHINES - 1)
_size = st.sampled_from(TASK_SIZES)
_dust = st.sampled_from(DUST)

#: ``plain`` ops use the sizes as given (and misfit / over-release on
#: their own when the machine is full / empty); ``edge`` ops first move
#: the machine so that free (claim) or used (release) is ``k * size +
#: dust``, then claim or release ``k x size`` across that boundary.
operations = st.lists(
    st.tuples(
        st.sampled_from(("claim", "release", "claim-edge", "release-edge")),
        _machine,
        _size,
        _size,
        st.integers(1, 4),
        _dust,
        _dust,
    ),
    min_size=1,
    max_size=30,
)


def _outcome(call, *args) -> tuple | None:
    try:
        call(*args)
    except Exception as error:  # noqa: BLE001 - the comparison is the point
        return type(error), str(error)
    return None


def _calls(state: CellState, operation) -> list[tuple]:
    """The concrete ``(op, machine, cpu, mem, count)`` calls of one drawn
    operation, sized against ``state``'s current contents."""
    kind, machine, cpu, mem, count, dust_cpu, dust_mem = operation
    if kind in ("claim", "release"):
        return [(kind, machine, cpu, mem, count)]
    free_cpu = state.free_cpu.item(machine)
    free_mem = state.free_mem.item(machine)
    if kind == "claim-edge":
        # Leave ``count * size + dust`` free, then claim ``count x size``.
        setup = (
            "claim",
            machine,
            max(0.0, free_cpu - (count * cpu + dust_cpu)),
            max(0.0, free_mem - (count * mem + dust_mem)),
            1,
        )
        return [setup, ("claim", machine, cpu, mem, count)]
    # Leave ``count * size + dust`` used, then release ``count x size``.
    move_cpu = (count * cpu + dust_cpu) - (state.cell.cpu_capacity.item(machine) - free_cpu)
    move_mem = (count * mem + dust_mem) - (state.cell.mem_capacity.item(machine) - free_mem)
    return [
        ("claim", machine, max(0.0, move_cpu), max(0.0, move_mem), 1),
        ("release", machine, max(0.0, -move_cpu), max(0.0, -move_mem), 1),
        ("release", machine, cpu, mem, count),
    ]


@given(operations)
@settings(max_examples=300, deadline=None)
def test_claim_and_release_match_their_oracles_bit_for_bit(ops):
    cell = Cell.heterogeneous(PLATFORMS)
    state, oracle = CellState(cell, changelog_capacity=16), CellState(cell, changelog_capacity=16)
    raised = applied = 0
    for operation in ops:
        for op, machine, cpu, mem, count in _calls(oracle, operation):
            reference = claim_reference if op == "claim" else release_reference
            want = _outcome(reference, oracle, machine, cpu, mem, count)
            method = state.claim if op == "claim" else state.release
            got = _outcome(method, machine, cpu, mem, count)
            assert got == want
            assert state_bits(state) == state_bits(oracle)
            raised += want is not None
            applied += want is None
    # Invariants, on the side under test: nothing negative, nothing
    # above capacity, used totals track the arrays.
    assert (state.free_cpu >= 0.0).all() and (state.free_cpu <= cell.cpu_capacity).all()
    assert (state.free_mem >= 0.0).all() and (state.free_mem <= cell.mem_capacity).all()
    assert abs(state.used_cpu - (cell.total_cpu - state.free_cpu.sum())) < 1e-6
    assert state.version == applied
    assert raised + applied >= len(ops)


def test_the_strategy_reaches_every_branch():
    """The edge operations do what their names say: on a fresh machine
    each dust value lands on the intended side of the boundary."""
    cell = Cell.heterogeneous(PLATFORMS)
    seen = set()
    for dust in DUST:
        for kind in ("claim-edge", "release-edge"):
            state = CellState(cell)
            calls = _calls(state, (kind, 0, 0.5, 1.0, 3, dust, 0.07))
            for op, machine, cpu, mem, count in calls[:-1]:
                (state.claim if op == "claim" else state.release)(machine, cpu, mem, count)
            op, machine, cpu, mem, count = calls[-1]
            before = state.free_cpu.item(0)
            error = _outcome(state.claim if op == "claim" else state.release, machine, cpu, mem, count)
            if error is not None:
                seen.add((kind, "raise"))
            elif op == "claim":
                seen.add((kind, "clamp" if before - cpu * count < 0.0 else "plain"))
            else:
                seen.add((kind, "clamp" if before + cpu * count > 4.0 else "plain"))
    assert seen == {
        (kind, branch)
        for kind in ("claim-edge", "release-edge")
        for branch in ("raise", "clamp", "plain")
    }


#: Batch operations: one size, distinct machines, a count each.
batches = st.lists(
    st.tuples(
        st.sampled_from(("claim", "release")),
        _size,
        _size,
        st.lists(
            st.tuples(_machine, st.integers(1, 4)),
            min_size=1,
            max_size=NUM_MACHINES,
            unique_by=lambda row: row[0],
        ),
    ),
    min_size=1,
    max_size=12,
)


@given(batches)
@settings(max_examples=200, deadline=None)
def test_batches_match_their_oracles_row_for_row(ops):
    """One walk over a plan is its rows applied one by one: the same
    state after every batch, bit for bit, and a misfit or over-release
    raises the same error with the rows before it applied."""
    cell = Cell.heterogeneous(PLATFORMS)
    state, oracle = CellState(cell, changelog_capacity=16), CellState(cell, changelog_capacity=16)
    for op, cpu, mem, rows in ops:
        plan = Plan(cpu, mem, [machine for machine, _ in rows], [count for _, count in rows])
        reference = claim_reference if op == "claim" else release_reference
        want = _outcome(batch_reference, reference, oracle, plan)
        got = _outcome(state.claim_batch if op == "claim" else state.release_batch, plan)
        assert got == want
        assert state_bits(state) == state_bits(oracle)
    assert state.version == oracle.version <= sum(len(rows) for _, _, _, rows in ops)
