"""Statically partitioned scheduling (paper section 3.2, Table 1 row 2).

The cell is split into fixed sub-cells, one per workload type, each with
its own independent monolithic scheduler: "complete control over a set
of resources ... typically deployed onto dedicated, statically-
partitioned clusters of machines". There is no interference by
construction; the cost is fragmentation — a full batch partition cannot
borrow the service partition's idle machines.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.metrics import MetricsCollector
from repro.schedulers.base import DecisionTimeModel
from repro.schedulers.monolithic import MonolithicScheduler
from repro.sim import Simulator
from repro.workload.job import Job, JobType


class StaticPartition:
    """Two monolithic schedulers over disjoint fixed partitions.

    ``batch_share`` is the fraction of machines dedicated to the batch
    partition; the rest serve the service workload.
    """

    def __init__(
        self,
        sim: Simulator,
        metrics: MetricsCollector,
        cell: Cell,
        rng_batch: np.random.Generator,
        rng_service: np.random.Generator,
        batch_model: DecisionTimeModel,
        service_model: DecisionTimeModel,
        batch_share: float = 0.5,
        attempt_limit: int = 1000,
    ) -> None:
        if not 0.0 < batch_share < 1.0:
            raise ValueError(f"batch_share must be in (0, 1), got {batch_share}")
        split = max(1, min(len(cell) - 1, round(len(cell) * batch_share)))
        self.batch_cell = cell.subcell(range(split), name=f"{cell.name}/batch")
        self.service_cell = cell.subcell(
            range(split, len(cell)), name=f"{cell.name}/service"
        )
        self.batch_state = CellState(self.batch_cell)
        self.service_state = CellState(self.service_cell)
        self.batch_scheduler = MonolithicScheduler(
            "partition-batch",
            sim,
            metrics,
            self.batch_state,
            rng_batch,
            batch_model,
            attempt_limit,
        )
        self.service_scheduler = MonolithicScheduler(
            "partition-service",
            sim,
            metrics,
            self.service_state,
            rng_service,
            service_model,
            attempt_limit,
        )

    def submit(self, job: Job) -> None:
        """Route a job to its type's dedicated partition."""
        target = (
            self.batch_scheduler
            if job.job_type is JobType.BATCH
            else self.service_scheduler
        )
        rec = target.sim.recorder
        if rec.enabled:
            rec.event(
                "partition.route",
                t=target.sim.now,
                sched=target.name,
                job=job.job_id,
                job_type=job.job_type.value,
            )
        target.submit(job)

    @property
    def states(self) -> tuple[CellState, CellState]:
        return (self.batch_state, self.service_state)
