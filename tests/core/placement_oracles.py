"""Scalar oracles for the vectorized placement kernels.

Each is the pre-vectorization implementation of a kernel in
:mod:`repro.core.placement`, with the identical RNG draw schedule and
EPSILON arithmetic; ``test_kernel_equivalence.py`` asserts the kernels
match them column for column (:func:`columns`).
"""

import numpy as np

from repro.core.cellstate import EPSILON
from repro.core.placement import MAX_SAMPLE_BLOCKS, SAMPLE_BLOCK, _validate
from repro.core.transaction import Plan


def randomized_first_fit_reference(
    free_cpu: np.ndarray,
    free_mem: np.ndarray,
    cpu: float,
    mem: float,
    num_tasks: int,
    rng: np.random.Generator,
) -> Plan:
    """Retained scalar reference for :func:`randomized_first_fit`.

    Independent re-implementation with the identical RNG draw schedule
    and EPSILON arithmetic, but packing via the scalar
    :func:`_pack_reference` walk. The differential property tests assert
    the vectorized kernel matches this column for column.
    """
    _validate(cpu, mem, num_tasks)
    num_machines = free_cpu.shape[0]
    machines: list[int] = []
    counts: list[int] = []
    remaining = num_tasks
    examined: set[int] = set()
    for _ in range(MAX_SAMPLE_BLOCKS):
        draws = (rng.random(SAMPLE_BLOCK) * num_machines).astype(np.int64)
        progressed = False
        for machine in draws.tolist():
            if machine in examined:
                continue
            examined.add(machine)
            have_cpu = free_cpu.item(machine) + EPSILON
            have_mem = free_mem.item(machine) + EPSILON
            if have_cpu < cpu or have_mem < mem:
                continue
            count = remaining
            if cpu > 0:
                count = min(count, int(have_cpu // cpu))
            if mem > 0:
                count = min(count, int(have_mem // mem))
            machines.append(machine)
            counts.append(count)
            remaining -= count
            progressed = True
            if remaining == 0:
                return Plan(cpu, mem, machines, counts)
        if not progressed:
            break
    mask = (free_cpu + EPSILON >= cpu) & (free_mem + EPSILON >= mem)
    if examined:
        mask[sorted(examined)] = False
    candidates = np.flatnonzero(mask)
    if candidates.size:
        rng.shuffle(candidates)
        tail = _pack_reference(candidates, free_cpu, free_mem, cpu, mem, remaining)
        machines += tail.machines
        counts += tail.counts
    return Plan(cpu, mem, machines, counts)


def _pack_reference(
    candidates: np.ndarray,
    free_cpu: np.ndarray,
    free_mem: np.ndarray,
    cpu: float,
    mem: float,
    num_tasks: int,
) -> Plan:
    """Retained scalar reference for :func:`_pack`: walk candidates in
    order, packing as many tasks as fit on each."""
    machines: list[int] = []
    counts: list[int] = []
    remaining = num_tasks
    for machine in candidates:
        per_machine = remaining
        if cpu > 0:
            per_machine = min(per_machine, int((free_cpu[machine] + EPSILON) // cpu))
        if mem > 0:
            per_machine = min(per_machine, int((free_mem[machine] + EPSILON) // mem))
        if per_machine <= 0:
            continue
        machines.append(int(machine))
        counts.append(per_machine)
        remaining -= per_machine
        if remaining == 0:
            break
    return Plan(cpu, mem, machines, counts)


def _ordered_fit_reference(
    free_cpu: np.ndarray,
    free_mem: np.ndarray,
    cpu: float,
    mem: float,
    num_tasks: int,
    rng: np.random.Generator,
    descending_free: bool,
) -> Plan:
    """Retained scalar reference for :func:`_ordered_fit`: full sort of
    all candidates, scalar pack."""
    del rng
    _validate(cpu, mem, num_tasks)
    candidates = np.flatnonzero(
        (free_cpu + EPSILON >= cpu) & (free_mem + EPSILON >= mem)
    )
    if candidates.size == 0:
        return Plan(cpu, mem, [], [])
    keys = free_cpu[candidates] + free_mem[candidates]
    order = np.lexsort((candidates, -keys if descending_free else keys))
    return _pack_reference(candidates[order], free_cpu, free_mem, cpu, mem, num_tasks)


def columns(plan: Plan) -> tuple:
    """Everything a plan says: its size and both columns, for ``==``."""
    return plan.cpu, plan.mem, plan.machines, plan.counts
