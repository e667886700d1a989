"""Populating cell state with the standing task population.

"At the start of a simulation, the lightweight simulator initializes
cluster state using task-size data extracted from the relevant trace,
but only instantiates sufficiently many tasks to utilize about 60% of
cluster resources" (paper section 4).
"""

from __future__ import annotations

import math
from array import array
from itertools import repeat

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

    One walk over the sizes, on Python copies of the free arrays, does
    the fit test and float rule of one :meth:`CellState.claim` per task
    and notes the machine. The rest is done on the columns after it:
    the used totals (added left to right, as the claims would), and the
    kept releases, stable-sorted by time and queued as one
    :meth:`Simulator.at_sorted` run, which fires in the order one
    ``sim.at`` per task would; each slice of it frees its tasks in one
    walk of ``CellState._release`` (the body of :meth:`CellState.release`)
    over the run's columns. One :meth:`CellState.store_fill` stores the
    walk. A negative or NaN size or duration of a task the walk
    reached is refused with ``ValueError`` before anything is written.
    """
    order = rng.permutation(state.num_machines).tolist()
    num_machines = len(order)
    free_cpu = state.free_cpu.tolist()
    free_mem = state.free_mem.tolist()
    machines: list[int] = []
    place = machines.append
    cursor = 0
    # The cursor's machine and its room live in locals, and are stored
    # back when the cursor moves on.
    machine = order[cursor]
    room_cpu = free_cpu[machine]
    room_mem = free_mem[machine]
    for cpu, mem in zip(tasks.cpu, tasks.mem):
        # The cursor's machine nearly always fits: scan only when not.
        if not (room_cpu + EPSILON >= cpu and room_mem + EPSILON >= mem):
            free_cpu[machine] = room_cpu
            free_mem[machine] = room_mem
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
        if room_cpu < 0.0:
            room_cpu = 0.0
        room_mem -= mem
        if room_mem < 0.0:
            room_mem = 0.0
        place(machine)
    free_cpu[machine] = room_cpu
    free_mem[machine] = room_mem
    placed = len(machines)
    # The walk reached the placed tasks and the one that did not fit. A
    # NaN size fails every fit test, so the walk stops on it.
    reached = min(placed + 1, len(tasks))
    cpus = np.asarray(tasks.cpu)[:reached]
    mems = np.asarray(tasks.mem)[:reached]
    ends = np.asarray(tasks.duration)[:reached]
    valid = (cpus >= 0.0) & (mems >= 0.0) & (ends >= 0.0)
    if not valid.all():
        bad = int(valid.argmin())
        raise ValueError(
            f"standing task {bad} has a negative or NaN size or duration: "
            f"cpu={tasks.cpu[bad]}, mem={tasks.mem[bad]}, duration={tasks.duration[bad]}"
        )
    cpus, mems, ends = cpus[:placed], mems[:placed], ends[:placed]
    placed_on = np.array(machines, dtype=np.int64)
    used_cpu = _add_in_order(state.used_cpu, cpus)
    used_mem = _add_in_order(state.used_mem, mems)
    # Releases first: the queue refuses a past time before it queues
    # anything, so that leaves the state untouched too.
    if sim is not None:
        kept = np.flatnonzero(ends <= (math.inf if horizon is None else horizon))
        kept = kept[ends[kept].argsort(kind="stable")]  # ties keep task order
        times = ends[kept].tolist()
        run_cpu = array("d", cpus[kept].tobytes())
        run_mem = array("d", mems[kept].tobytes())
        run_machines = array("q", placed_on[kept].tobytes())
        release_rows = state._release
        one_each = repeat(1)

        def release(start: int, stop: int) -> None:
            release_rows(
                zip(run_machines[start:stop], one_each, run_cpu[start:stop], run_mem[start:stop])
            )

        sim.at_sorted(times, release)
    state.store_fill(placed_on, free_cpu, free_mem, used_cpu, used_mem)
    return placed


def _add_in_order(total: float, values: np.ndarray) -> float:
    """``total`` plus each of ``values`` in turn, left to right: the
    claims' own additions. ``np.add.accumulate`` adds in order, where
    ``np.sum`` adds pairwise and ``sum`` compensates (Python 3.12)."""
    sums = np.concatenate(([total], values))
    return np.add.accumulate(sums, out=sums)[-1].item()
