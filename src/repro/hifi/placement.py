"""Constraint-aware scoring placement — the stand-in for the production
scheduling algorithm ("Sched. algorithm: Google algorithm", Table 2).

The real algorithm is proprietary; this one preserves the properties
the section 5 experiments exercise (DESIGN.md, "Substitutions"):

* **constraints are obeyed** — infeasible machines are filtered out, so
  picky jobs contend for small candidate sets;
* **placement is deterministic scoring, not randomized** — feasible
  machines are ranked by a best-fit score, so two schedulers thinking
  concurrently tend to pick the *same* machines. Together with
  constraints this is why the high-fidelity simulator experiences more
  interference than the lightweight one, exactly as the paper observes;
* **service tasks spread across failure domains** — a per-rack cap
  models the production scheduler's failure-tolerant placement
  (section 2.1's chance-constrained placement problem, simplified).

Only machines with room for a task after headroom are ranked (a
comparison per dimension, ``usable + EPSILON >= size``) and only they
are scored; for a batch job only the best-fit prefix the walk can reach
is sorted. The jitter is still drawn for every feasible machine, so the
claims and the generator state are those of scoring and sorting every
feasible machine.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster import Cell
from repro.core.cellstate import EPSILON, CellSnapshot
from repro.core.placement import _pack, _stable_prefix
from repro.core.transaction import Plan
from repro.hifi.constraints import AttributeIndex
from repro.workload.job import Job, JobType

#: Service jobs spread across at least this many racks when possible.
MIN_SERVICE_RACKS = 3


class ScoringPlacer:
    """Best-fit scoring placement with failure-domain spreading.

    Instances are bound to a cell (for capacities, racks and the
    attribute index) and are callable with the
    :data:`repro.core.scheduler.PlacementFn` signature, so they plug
    directly into :class:`repro.core.scheduler.OmegaScheduler`.
    """

    def __init__(
        self,
        cell: Cell,
        attribute_index: AttributeIndex | None = None,
        headroom: float = 0.10,
    ) -> None:
        if not 0.0 <= headroom < 1.0:
            raise ValueError(f"headroom must be in [0, 1), got {headroom}")
        self.cell = cell
        self.index = attribute_index or AttributeIndex(cell)
        self.headroom = headroom
        self._racks = cell.racks
        self._num_racks = int(cell.racks.max()) + 1 if len(cell) else 0
        self._headroom_cpu = cell.cpu_capacity * headroom
        self._headroom_mem = cell.mem_capacity * headroom

    # ------------------------------------------------------------------
    def __call__(
        self, snapshot: CellSnapshot, job: Job, rng: np.random.Generator
    ) -> Plan:
        return self.place(snapshot, job, rng)

    def place(
        self, snapshot: CellSnapshot, job: Job, rng: np.random.Generator
    ) -> Plan:
        """Plan the job's unplaced tasks on the snapshot."""
        cpu = job.cpu_per_task
        mem = job.mem_per_task
        feasible = self.index.feasible_mask(job.constraints)
        fits = (
            feasible
            & (snapshot.free_cpu + EPSILON >= cpu)
            & (snapshot.free_mem + EPSILON >= mem)
        )
        candidates = np.flatnonzero(fits)
        if candidates.size == 0:
            return Plan(cpu, mem, [], [])

        # A small per-scheduler jitter reorders near-equal machines:
        # without it, concurrent schedulers would pick byte-identical
        # machine lists and conflict on nearly every overlapping
        # decision, which the production algorithm's diversity (many
        # score terms, per-job state) avoids. The jitter scale (2.5 % of
        # the normalized score range) is small enough to preserve
        # best-fit behaviour. It is drawn for every fitting machine, so
        # the generator advances by the candidate count.
        jitter = rng.uniform(0.0, 0.05, size=candidates.shape)
        remaining = job.unplaced_tasks
        if remaining == 0:
            return Plan(cpu, mem, [], [])

        # Leave per-machine headroom: the production scheduler does not
        # pack machines to the brim (system overhead, usage variation),
        # and the headroom absorbs small concurrent claims so
        # fine-grained commits forgive most overlaps. Best fit ranks the
        # fullest machines first and the headroom leaves exactly those
        # without room, so only machines with room for one task are
        # ranked: the walk skips every other one anyway. For a size > 0,
        # ``usable + EPSILON >= size`` is the walk's
        # ``(usable + EPSILON) // size >= 1``.
        usable_cpu = snapshot.free_cpu - self._headroom_cpu
        usable_mem = snapshot.free_mem - self._headroom_mem
        room = np.ones(candidates.shape, dtype=bool)
        if cpu > 0:
            room &= usable_cpu[candidates] + EPSILON >= cpu
        if mem > 0:
            room &= usable_mem[candidates] + EPSILON >= mem
        ranked = candidates[room]

        # Best-fit score: prefer machines whose remaining free capacity
        # after one task is smallest (normalized by machine capacity),
        # i.e. pack tight, keep big machines open for big tasks.
        scores = (
            (snapshot.free_cpu[ranked] - cpu) / self.cell.cpu_capacity[ranked]
            + (snapshot.free_mem[ranked] - mem) / self.cell.mem_capacity[ranked]
        ) + jitter[room]
        if job.job_type is not JobType.SERVICE:
            # Batch jobs just pack: no cap can bind before the job runs
            # out, and each ranked machine takes a task, so the first
            # ``remaining`` of the order always place the job.
            order = ranked[_stable_prefix(scores, remaining)]
            return _pack(order, usable_cpu, usable_mem, cpu, mem, remaining)

        order = ranked[np.argsort(scores, kind="stable")]
        per_machine_cap, per_rack_cap = self._spreading_caps(remaining, candidates.size)
        rack_counts: dict[int, int] = {}
        machines: list[int] = []
        counts: list[int] = []
        for machine in order:
            rack = int(self._racks[machine])
            rack_room = per_rack_cap - rack_counts.get(rack, 0)
            if rack_room <= 0:
                continue
            count = min(remaining, rack_room, per_machine_cap)
            if cpu > 0:
                count = min(count, int((usable_cpu[machine] + EPSILON) // cpu))
            if mem > 0:
                count = min(count, int((usable_mem[machine] + EPSILON) // mem))
            if count <= 0:
                continue
            machines.append(int(machine))
            counts.append(count)
            rack_counts[rack] = rack_counts.get(rack, 0) + count
            remaining -= count
            if remaining == 0:
                break
        return Plan(cpu, mem, machines, counts)

    # ------------------------------------------------------------------
    def _spreading_caps(self, tasks: int, num_candidates: int) -> tuple[int, int]:
        """Per-machine and per-rack task caps for a service job.

        Service jobs must survive correlated failures, so their tasks
        are spread over at least :data:`MIN_SERVICE_RACKS` racks and no
        machine concentration.
        """
        racks_available = min(self._num_racks, max(1, num_candidates))
        target_racks = min(max(MIN_SERVICE_RACKS, 1), racks_available)
        per_rack = max(1, math.ceil(tasks / target_racks))
        per_machine = max(1, math.ceil(per_rack / 2))
        return per_machine, per_rack
