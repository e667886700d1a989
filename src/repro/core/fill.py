"""Populating cell state with the standing task population.

"At the start of a simulation, the lightweight simulator initializes
cluster state using task-size data extracted from the relevant trace,
but only instantiates sufficiently many tasks to utilize about 60% of
cluster resources" (paper section 4).
"""

from __future__ import annotations

import numpy as np

from repro.core.cellstate import EPSILON, CellState
from repro.sim import Simulator
from repro.workload.generator import StandingTasks


def populate(
    state: CellState,
    tasks: StandingTasks,
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

    One walk over the columns, on Python copies of the free arrays, does
    what one :meth:`CellState.claim` and one ``sim.at`` per task would.
    The kept releases, stable-sorted by time, go on the queue as one
    :meth:`Simulator.at_sorted` run, which fires in the order those
    ``sim.at`` calls would, and one :meth:`CellState.store_fill` stores
    the walk. A negative or NaN task size or duration is refused with
    ``ValueError`` before anything is written.
    """
    order = rng.permutation(state.num_machines).tolist()
    num_machines = len(order)
    free_cpu = state.free_cpu.tolist()
    free_mem = state.free_mem.tolist()
    used_cpu = state.used_cpu
    used_mem = state.used_mem
    machines: list[int] = []
    kept: list[int] = []  # the placed tasks whose release is queued
    cursor = 0
    for cpu, mem, duration in zip(tasks.cpu, tasks.mem, tasks.duration):
        if not (cpu >= 0.0 and mem >= 0.0 and duration >= 0.0):
            # Every task before this one was placed.
            raise ValueError(
                f"standing task {len(machines)} has a negative or NaN size "
                f"or duration: cpu={cpu}, mem={mem}, duration={duration}"
            )
        # The cursor's machine nearly always fits: scan only when not.
        machine = order[cursor]
        room_cpu = free_cpu[machine]
        room_mem = free_mem[machine]
        if not (room_cpu + EPSILON >= cpu and room_mem + EPSILON >= mem):
            for step in range(1, num_machines):
                machine = order[(cursor + step) % num_machines]
                room_cpu = free_cpu[machine]
                room_mem = free_mem[machine]
                if room_cpu + EPSILON >= cpu and room_mem + EPSILON >= mem:
                    cursor = (cursor + step) % num_machines
                    break
            else:
                # Cell cannot hold the rest of the fill; stop rather than spin.
                break
        # claim's float rule: subtract, then clamp float dust below zero.
        room_cpu -= cpu
        free_cpu[machine] = 0.0 if room_cpu < 0.0 else room_cpu
        room_mem -= mem
        free_mem[machine] = 0.0 if room_mem < 0.0 else room_mem
        used_cpu += cpu
        used_mem += mem
        if sim is not None and (horizon is None or duration <= horizon):
            kept.append(len(machines))
        machines.append(machine)
    # Releases first: the queue refuses a past time before it queues
    # anything, so that leaves the state untouched too.
    if sim is not None:
        durations, cpus, mems = tasks.duration, tasks.cpu, tasks.mem
        kept.sort(key=durations.__getitem__)  # stable: ties keep task order
        run_machines = [machines[task] for task in kept]
        run_cpu = [cpus[task] for task in kept]
        run_mem = [mems[task] for task in kept]
        state_release = state.release

        def release(start: int, stop: int) -> None:
            for entry in range(start, stop):
                state_release(run_machines[entry], run_cpu[entry], run_mem[entry])

        sim.at_sorted([durations[task] for task in kept], release)
    state.store_fill(machines, free_cpu, free_mem, used_cpu, used_mem)
    return len(machines)
