"""The specialized MapReduce scheduler, an Omega scheduler subclass.

"Our specialized MapReduce scheduler ... observes the overall resource
utilization in the cluster, predicts the benefits of scaling up current
and pending MapReduce jobs, and apportions some fraction of the unused
resources across those jobs according to some policy" (section 6).

Adding it is deliberately easy — the case study's conclusion is that
"adding a specialized functionality to the Omega system is
straightforward": this subclass is a plan that sizes the worker pool
before claiming, plus the step that books what was placed as that pool;
everything else (snapshots, optimistic commit, retries, metrics) is
:meth:`OmegaScheduler.attempt <repro.core.scheduler.OmegaScheduler.attempt>`.

Simplification vs the paper (documented in DESIGN.md): resources are
granted when the job is scheduled, not re-adjusted while it runs; the
paper itself notes its model ignores worker setup time, so one-shot
sizing preserves the studied effect (speedup distributions and
utilization variability).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.core.cellstate import CellSnapshot, CellState
from repro.core.placement import randomized_first_fit
from repro.core.scheduler import OmegaScheduler
from repro.core.transaction import CommitResult, ConflictMode, Plan
from repro.mapreduce.model import REFERENCE_CELL_MACHINES, MapReduceJob, sample_profile
from repro.mapreduce.policies import (
    POLICIES,
    AllocationPolicy,
    ClusterView,
    decide_workers,
)
from repro.metrics import MetricsCollector
from repro.schedulers.base import DecisionTimeModel
from repro.sim import Simulator
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.world import World

#: "About 20% of jobs in Google are MapReduce ones": the MR stream runs
#: at a quarter of the batch rate, i.e. 20 % of all batch-side jobs.
MAPREDUCE_RATE_RATIO = 0.25


class MapReduceScheduler(OmegaScheduler):
    """An Omega scheduler that opportunistically grows MapReduce jobs."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        metrics: MetricsCollector,
        state: CellState,
        rng: np.random.Generator,
        model: DecisionTimeModel,
        policy: AllocationPolicy,
        conflict_mode: ConflictMode = ConflictMode.FINE,
        attempt_limit: int = 1000,
    ) -> None:
        super().__init__(
            name,
            sim,
            metrics,
            state,
            rng,
            model,
            conflict_mode=conflict_mode,
            placement=self._plan_workers,
            attempt_limit=attempt_limit,
        )
        self.policy = policy
        #: Realized speedups of completed grants (Figure 15's data).
        self.speedups: list[float] = []
        self.workers_granted_total = 0
        self.workers_configured_total = 0

    # ------------------------------------------------------------------
    def cluster_view(self) -> ClusterView:
        """Whole-cluster visibility via the shared cell state."""
        return ClusterView(
            idle_cpu=self.state.idle_cpu,
            idle_mem=self.state.idle_mem,
            total_cpu=self.state.cell.total_cpu,
            total_mem=self.state.cell.total_mem,
        )

    def _plan_workers(
        self, snapshot: CellSnapshot, job: Job, rng: np.random.Generator
    ) -> Plan:
        """The plan: size a MapReduce job's worker pool (other work asks
        for what it lacks), then first fit that many."""
        workers = job.unplaced_tasks
        if isinstance(job, MapReduceJob):
            workers = decide_workers(job.profile, self.policy, self.cluster_view())
        return randomized_first_fit(
            snapshot.free_cpu,
            snapshot.free_mem,
            job.cpu_per_task,
            job.mem_per_task,
            workers,
            rng,
        )

    def _apply(self, job: Job, result: CommitResult) -> None:
        placed = result.accepted_tasks
        if not isinstance(job, MapReduceJob) or placed == 0:
            super()._apply(job, result)
            return
        # Workers are elastic: whatever was placed becomes the job's
        # worker pool, and the performance model predicts its runtime.
        profile = job.profile
        job.granted_workers = placed
        job.unplaced_tasks = 0
        job.duration = profile.completion_time(placed)
        self.speedups.append(profile.speedup(placed))
        self.workers_granted_total += placed
        self.workers_configured_total += profile.workers_configured


class MapReduceWorkload:
    """Poisson arrival process of MapReduce jobs.

    "About 20% of jobs in Google are MapReduce ones" — experiments
    derive this generator's rate from the cluster preset's batch rate.
    ``job_ids`` is the run's id sequence, shared with its other job
    sources (:attr:`repro.world.RunContext.job_ids`).
    """

    def __init__(
        self,
        sim: Simulator,
        rate: float,
        rng: np.random.Generator,
        submit: Callable[[MapReduceJob], None],
        horizon: float,
        job_ids: Iterator[int],
        worker_scale: float = 1.0,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self._sim = sim
        self._rate = rate
        self._rng = rng
        self._submit = submit
        self._horizon = horizon
        self._ids = job_ids
        self._worker_scale = worker_scale
        self.jobs_generated = 0

    def start(self) -> None:
        self._schedule_next()

    def _schedule_next(self) -> None:
        gap = self._rng.exponential(1.0 / self._rate)
        arrival = self._sim.now + gap
        if arrival <= self._horizon:
            self._sim.at(arrival, self._arrive)

    def _arrive(self) -> None:
        profile = sample_profile(self._rng, worker_scale=self._worker_scale)
        job = MapReduceJob.from_profile(profile, self._sim.now, next(self._ids))
        self.jobs_generated += 1
        self._submit(job)
        self._schedule_next()


def add_mapreduce(world: World, policy: str) -> None:
    """Add the MapReduce scheduler under ``policy`` (a
    :data:`~repro.mapreduce.policies.POLICIES` name) and its job stream
    to a lightweight ``world``, as the last step of its ``assemble``.

    The MapReduce stream is additional to the preset's batch stream
    (the paper's MR jobs were a subset of the existing workload), with
    configured worker counts shrunk to the cell size (see
    :data:`~repro.mapreduce.model.REFERENCE_CELL_MACHINES`) so the extra
    load stays proportionate.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown MapReduce policy {policy!r}; choose from {tuple(POLICIES)}")
    preset = world.config.preset
    scheduler = MapReduceScheduler(
        "mapreduce",
        world.sim,
        world.metrics,
        world.states[0],
        world.streams.stream("placement.mapreduce"),
        DecisionTimeModel(),
        POLICIES[policy](),
    )
    world.register(scheduler)
    MapReduceWorkload(
        world.sim,
        rate=MAPREDUCE_RATE_RATIO * preset.batch.arrival_rate,
        rng=world.streams.stream("workload.mapreduce"),
        submit=scheduler.submit,
        horizon=world.horizon,
        job_ids=world.context.job_ids,
        worker_scale=preset.num_machines / REFERENCE_CELL_MACHINES,
    ).start()
