"""Populating cell state with the standing task population.

"At the start of a simulation, the lightweight simulator initializes
cluster state using task-size data extracted from the relevant trace,
but only instantiates sufficiently many tasks to utilize about 60% of
cluster resources" (paper section 4).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.cellstate import EPSILON, CellState
from repro.sim import Simulator
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
    """
    order = rng.permutation(state.num_machines).tolist()
    num_machines = len(order)
    cursor = 0
    placed = 0
    cpu_at = state.free_cpu.item
    mem_at = state.free_mem.item
    claim = state.claim
    schedule = None if sim is None else sim.at
    release = state.release
    for cpu, mem, duration, _ in tasks:
        for step in range(num_machines):
            machine = order[(cursor + step) % num_machines]
            if cpu_at(machine) + EPSILON >= cpu and mem_at(machine) + EPSILON >= mem:
                cursor = (cursor + step) % num_machines
                break
        else:
            # Cell cannot hold the rest of the fill; stop rather than spin.
            break
        claim(machine, cpu, mem, 1)
        placed += 1
        if schedule is not None and (horizon is None or duration <= horizon):
            schedule(duration, release, machine, cpu, mem, 1)
    return placed
