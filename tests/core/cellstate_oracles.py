"""Boxed-scalar oracles for :meth:`CellState.claim` and ``release`` (and,
row by row, their batch forms), and the one fingerprint of a cell state
that tests compare.

Each oracle is the boxed-scalar form of its method: the same checks and
float operations in the same order, on ``np.float64`` scalars indexed
out of the arrays.
``test_cellstate_oracle.py`` drives both sides through the same
interleavings and requires bit-identical state and identical errors.
"""

from repro.core.cellstate import EPSILON, CellState, OvercommitError


def claim_reference(
    state: CellState, machine: int, cpu: float, mem: float, count: int = 1
) -> None:
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    total_cpu = cpu * count
    total_mem = mem * count
    if (
        state.free_cpu[machine] + EPSILON < total_cpu
        or state.free_mem[machine] + EPSILON < total_mem
    ):
        raise OvercommitError(
            f"claim of {count} x ({cpu} cpu, {mem} mem) does not fit on "
            f"machine {machine} (free: {state.free_cpu[machine]} cpu, "
            f"{state.free_mem[machine]} mem)"
        )
    state.free_cpu[machine] -= total_cpu
    state.free_mem[machine] -= total_mem
    if state.free_cpu[machine] < 0.0:
        state.free_cpu[machine] = 0.0
    if state.free_mem[machine] < 0.0:
        state.free_mem[machine] = 0.0
    state._used_cpu += total_cpu
    state._used_mem += total_mem
    state.seq[machine] += 1
    _touch(state, machine)


def release_reference(
    state: CellState, machine: int, cpu: float, mem: float, count: int = 1
) -> None:
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    total_cpu = cpu * count
    total_mem = mem * count
    new_free_cpu = state.free_cpu[machine] + total_cpu
    new_free_mem = state.free_mem[machine] + total_mem
    if (
        new_free_cpu > state.cell.cpu_capacity[machine] + EPSILON
        or new_free_mem > state.cell.mem_capacity[machine] + EPSILON
    ):
        raise OvercommitError(
            f"release of {count} x ({cpu} cpu, {mem} mem) on machine "
            f"{machine} exceeds its capacity"
        )
    old_free_cpu = float(state.free_cpu[machine])
    old_free_mem = float(state.free_mem[machine])
    state.free_cpu[machine] = min(new_free_cpu, state.cell.cpu_capacity[machine])
    state.free_mem[machine] = min(new_free_mem, state.cell.mem_capacity[machine])
    state._used_cpu -= float(state.free_cpu[machine]) - old_free_cpu
    state._used_mem -= float(state.free_mem[machine]) - old_free_mem
    if state._used_cpu < 0.0:
        state._used_cpu = 0.0
    if state._used_mem < 0.0:
        state._used_mem = 0.0
    state.seq[machine] += 1
    _touch(state, machine)


def batch_reference(reference, state: CellState, plan) -> None:
    """``claim_batch`` / ``release_batch`` as their oracle: ``reference``
    (:func:`claim_reference` or :func:`release_reference`) once per
    ``(machine, count)`` row of the plan's columns, in order."""
    for machine, count in zip(plan.machines, plan.counts):
        reference(state, machine, plan.cpu, plan.mem, count)


def _touch(state: CellState, machine: int) -> None:
    state._ring[state.version % state._ring.size] = machine
    state.version += 1


def state_bits(state: CellState) -> dict:
    """Everything a mutation can change, bit for bit: every free value
    and the used totals as ``float.hex``, ``seq``, ``version``, and the
    changelog as far back as it reaches."""
    retained = min(state.version, state.changelog_capacity)
    return {
        "free_cpu": [value.hex() for value in state.free_cpu.tolist()],
        "free_mem": [value.hex() for value in state.free_mem.tolist()],
        "used": (float(state.used_cpu).hex(), float(state.used_mem).hex()),
        "seq": state.seq.tolist(),
        "version": state.version,
        "changelog": state.changed_since(state.version - retained).tolist(),
    }
