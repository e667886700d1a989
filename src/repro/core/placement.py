"""Placement strategies for the lightweight simulator.

The paper's lightweight simulator uses **randomized first fit**
(Table 2). Tasks of a job are identical (see :mod:`repro.workload.job`),
so placement walks candidate machines in some order and packs as many
tasks as fit onto each — which is exactly first fit for identical items.

Two additional orders are provided for the placement-strategy ablation
(`benchmarks/bench_ablation_placement.py`): **best fit** (fullest
feasible machines first — what the production-algorithm stand-in in
:mod:`repro.hifi.placement` does) and **worst fit** (emptiest first).
The order matters for *interference*: deterministic best-fit makes
concurrent schedulers pick the same machines, which is one of the two
reasons the paper's high-fidelity simulator sees more conflicts than
the lightweight one.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.cellstate import EPSILON
from repro.core.transaction import Plan

#: Machine draws per sampling round of :func:`randomized_first_fit`.
SAMPLE_BLOCK = 64

#: Sampling rounds before :func:`randomized_first_fit` gives up on
#: drawing and switches to the exact full-candidate fallback. Bounds
#: the worst case (nearly-saturated cells) at a few hundred draws.
MAX_SAMPLE_BLOCKS = 3


def randomized_first_fit(
    free_cpu: np.ndarray,
    free_mem: np.ndarray,
    cpu: float,
    mem: float,
    num_tasks: int,
    rng: np.random.Generator,
) -> Plan:
    """Plan placements for ``num_tasks`` identical tasks.

    Reads (does not mutate) the free arrays — typically a scheduler's
    private snapshot. Returns a :class:`Plan` (one entry per machine)
    whose task total is ``<= num_tasks`` (fewer when the view has
    insufficient room, in which case the scheduler retries the job
    later, per the paper's incremental-placement policy).

    Machines are drawn uniformly at random in blocks of
    :data:`SAMPLE_BLOCK` (repeats are skipped), which touches only
    O(tasks placed) machines on a mostly-free cell instead of shuffling
    all ``n`` candidates. If a whole block makes no progress, or
    :data:`MAX_SAMPLE_BLOCKS` blocks still leave tasks unplaced, the
    exact fallback shuffles the not-yet-claimed candidates and packs
    them — so the kernel remains work-conserving: it places fewer than
    ``num_tasks`` only when the view truly lacks room.
    """
    _validate(cpu, mem, num_tasks)
    num_machines = free_cpu.shape[0]
    machines: list[int] = []
    counts: list[int] = []
    remaining = num_tasks
    claimed: set[int] = set()
    # Buffer views index to python floats, so the per-draw work below
    # runs on unboxed doubles (same IEEE-754 results as the array
    # ufuncs, several times faster at this size).
    cpu_at = memoryview(free_cpu)
    mem_at = memoryview(free_mem)
    for _ in range(MAX_SAMPLE_BLOCKS):
        draws = (rng.random(SAMPLE_BLOCK) * num_machines).astype(np.int64)
        progressed = False
        for machine in draws.tolist():
            have_cpu = cpu_at[machine] + EPSILON
            have_mem = mem_at[machine] + EPSILON
            if have_cpu < cpu or have_mem < mem or machine in claimed:
                continue
            claimed.add(machine)
            count = remaining
            if cpu > 0:
                limit = int(have_cpu // cpu)
                if limit < count:
                    count = limit
            if mem > 0:
                limit = int(have_mem // mem)
                if limit < count:
                    count = limit
            machines.append(machine)
            counts.append(count)
            remaining -= count
            progressed = True
            if remaining == 0:
                return Plan(cpu, mem, machines, counts)
        if not progressed:
            break
    # Exact fallback: every feasible machine not yet claimed from, in a
    # uniformly random order. The views are never written here, so a
    # machine that was infeasible when drawn is infeasible in the mask
    # too and needs no remembering; machines already claimed from are
    # full w.r.t. per-task limits (otherwise remaining would be 0), so
    # excluding ``claimed`` loses nothing.
    mask = (free_cpu + EPSILON >= cpu) & (free_mem + EPSILON >= mem)
    if claimed:
        mask[sorted(claimed)] = False
    candidates = np.flatnonzero(mask)
    if candidates.size:
        rng.shuffle(candidates)
        tail = _pack(candidates, free_cpu, free_mem, cpu, mem, remaining)
        machines += tail.machines
        counts += tail.counts
    return Plan(cpu, mem, machines, counts)


def _validate(cpu: float, mem: float, num_tasks: int) -> None:
    if num_tasks < 1:
        raise ValueError(f"num_tasks must be >= 1, got {num_tasks}")
    if cpu < 0 or mem < 0:
        raise ValueError(
            f"task resource requests must be non-negative, got "
            f"cpu={cpu}, mem={mem}"
        )
    if cpu <= 0 and mem <= 0:
        raise ValueError("tasks must request some resource")


def _pack(
    candidates: np.ndarray,
    free_cpu: np.ndarray,
    free_mem: np.ndarray,
    cpu: float,
    mem: float,
    num_tasks: int,
) -> Plan:
    """Pack tasks onto candidates in order (cumulative-capacity kernel).

    Vectorized equivalent of the scalar first-fit walk (the oracle in
    ``tests/core/placement_oracles.py``): per-machine task limits via
    ``floor_divide``, then ``cumsum`` + ``searchsorted`` find the
    machine on which the job's demand runs out.
    """
    if candidates.size == 0 or num_tasks <= 0:
        return Plan(cpu, mem, [], [])
    limits = np.full(candidates.shape, float(num_tasks))
    if cpu > 0:
        np.minimum(
            limits, np.floor_divide(free_cpu[candidates] + EPSILON, cpu), out=limits
        )
    if mem > 0:
        np.minimum(
            limits, np.floor_divide(free_mem[candidates] + EPSILON, mem), out=limits
        )
    counts = limits.astype(np.int64)
    positive = counts > 0
    if not positive.all():
        candidates = candidates[positive]
        counts = counts[positive]
        if counts.size == 0:
            return Plan(cpu, mem, [], [])
    cumulative = np.cumsum(counts)
    cut = int(np.searchsorted(cumulative, num_tasks, side="left"))
    if cut < counts.size:
        candidates = candidates[: cut + 1]
        counts = counts[: cut + 1].copy()
        counts[cut] = num_tasks - (int(cumulative[cut - 1]) if cut else 0)
    return Plan(cpu, mem, candidates.tolist(), counts.tolist())


def _stable_prefix(keys: np.ndarray, k: int) -> np.ndarray:
    """An exact prefix of ``np.argsort(keys, kind="stable")`` at least
    ``min(k, keys.size)`` long.

    ``np.partition`` finds the k-th smallest key; every key at or below
    it is kept (ties included) and only those are sorted, so the result
    is ``argsort(keys, kind="stable")[:m]`` for the number ``m`` of keys
    ``<= kth``. Keys must not be NaN, and ``k`` must be at least 1.
    """
    if k >= keys.size:
        return np.argsort(keys, kind="stable")
    kth = np.partition(keys, k - 1)[k - 1]
    head = np.flatnonzero(keys <= kth)
    return head[np.argsort(keys[head], kind="stable")]


def _ordered_fit(
    free_cpu: np.ndarray,
    free_mem: np.ndarray,
    cpu: float,
    mem: float,
    num_tasks: int,
    rng: np.random.Generator,
    descending_free: bool,
) -> Plan:
    """First fit over candidates ordered by free capacity.

    ``descending_free=False`` is best fit (fullest machines first),
    ``True`` is worst fit (emptiest first). Candidates with equal free
    capacity are visited in machine-id order, so the result is a pure
    function of the free arrays. ``rng`` is unused but kept so all
    placement strategies share one signature. For ``size > 0``,
    ``free + EPSILON >= size`` holds exactly when ``_pack``'s
    ``floor_divide(free + EPSILON, size) >= 1`` does (a property test in
    ``tests/hifi/test_scoring_placement.py`` pins it), so every candidate
    takes a task and the first ``num_tasks`` of the order are all the
    walk can reach.
    """
    del rng  # deterministic tie-break: (free capacity, machine id)
    _validate(cpu, mem, num_tasks)
    candidates = np.flatnonzero(
        (free_cpu + EPSILON >= cpu) & (free_mem + EPSILON >= mem)
    )
    if candidates.size == 0:
        return Plan(cpu, mem, [], [])
    keys = free_cpu[candidates] + free_mem[candidates]
    order = _stable_prefix(-keys if descending_free else keys, num_tasks)
    return _pack(candidates[order], free_cpu, free_mem, cpu, mem, num_tasks)


def best_fit(
    free_cpu: np.ndarray,
    free_mem: np.ndarray,
    cpu: float,
    mem: float,
    num_tasks: int,
    rng: np.random.Generator,
) -> Plan:
    """Pack the fullest feasible machines first (tight packing;
    concurrent schedulers collide often)."""
    return _ordered_fit(free_cpu, free_mem, cpu, mem, num_tasks, rng, False)


def worst_fit(
    free_cpu: np.ndarray,
    free_mem: np.ndarray,
    cpu: float,
    mem: float,
    num_tasks: int,
    rng: np.random.Generator,
) -> Plan:
    """Fill the emptiest machines first (load spreading; concurrent
    schedulers naturally steer apart)."""
    return _ordered_fit(free_cpu, free_mem, cpu, mem, num_tasks, rng, True)


#: Strategy registry for the lightweight simulator and its ablations.
PLACEMENT_STRATEGIES: dict[str, Callable] = {
    "random-first-fit": randomized_first_fit,
    "best-fit": best_fit,
    "worst-fit": worst_fit,
}


def placement_fn(strategy: str):
    """A :data:`repro.core.scheduler.PlacementFn` for a named strategy."""
    try:
        fit = PLACEMENT_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown placement strategy {strategy!r}; "
            f"choose from {sorted(PLACEMENT_STRATEGIES)}"
        ) from None

    def placement(snapshot, job, rng):
        return fit(
            snapshot.free_cpu,
            snapshot.free_mem,
            job.cpu_per_task,
            job.mem_per_task,
            job.unplaced_tasks,
            rng,
        )

    return placement
