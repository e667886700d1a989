"""Populating cell state with the standing task population.

"At the start of a simulation, the lightweight simulator initializes
cluster state using task-size data extracted from the relevant trace,
but only instantiates sufficiently many tasks to utilize about 60% of
cluster resources" (paper section 4).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.cellstate import EPSILON, CellState, free_after_claim
from repro.sim import Event, Simulator
from repro.workload.generator import StandingTask


def populate(
    state: CellState,
    tasks: Sequence[StandingTask],
    rng: np.random.Generator,
    sim: Simulator | None = None,
    horizon: float | None = None,
) -> int:
    """Place standing tasks into ``state``; returns how many were placed.

    Placement walks a randomly shuffled machine order with a moving
    cursor (cheap first fit — the cell is mostly empty during fill).
    When ``sim`` is given, each placed task's release is scheduled at
    its remaining duration; releases past ``horizon`` are skipped since
    they could never run.

    The walk runs on Python copies of the free arrays. Its placements
    are then written with one :meth:`CellState.claim_each` and their
    releases queued with one :meth:`Simulator.at_all`, which leave the
    state and the queue as one ``claim`` and one ``sim.at`` per task
    would. A negative or NaN task size is refused with ``ValueError``
    before anything is written.
    """
    order = rng.permutation(state.num_machines).tolist()
    num_machines = len(order)
    free_cpu = state.free_cpu.tolist()
    free_mem = state.free_mem.tolist()
    machines: list[int] = []
    cpus: list[float] = []
    mems: list[float] = []
    releases: list[Event] = []
    release = state.release
    unqueued = Event.unqueued
    cursor = 0
    for index, (cpu, mem, duration, _) in enumerate(tasks):
        if not (cpu >= 0.0 and mem >= 0.0):
            raise ValueError(
                f"standing task {index} has a negative or NaN size: "
                f"cpu={cpu}, mem={mem}"
            )
        for step in range(num_machines):
            machine = order[(cursor + step) % num_machines]
            if free_cpu[machine] + EPSILON >= cpu and free_mem[machine] + EPSILON >= mem:
                cursor = (cursor + step) % num_machines
                break
        else:
            # Cell cannot hold the rest of the fill; stop rather than spin.
            break
        free_cpu[machine] = free_after_claim(free_cpu[machine], cpu)
        free_mem[machine] = free_after_claim(free_mem[machine], mem)
        machines.append(machine)
        cpus.append(cpu)
        mems.append(mem)
        if sim is not None and (horizon is None or duration <= horizon):
            releases.append(unqueued(duration, release, machine, cpu, mem, 1))
    # Releases first: the queue refuses a NaN or past time before it
    # queues anything, so a bad duration leaves the state untouched too.
    if sim is not None:
        sim.at_all(releases)
    state.claim_each(machines, cpus, mems)
    return len(machines)
