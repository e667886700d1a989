"""Monolithic schedulers (paper sections 3.1 and 4.1).

One scheduler instance processes *every* job serially against the
authoritative cell state — there is no concurrency, hence no conflicts,
but a slow decision blocks everything behind it (head-of-line blocking).

* **single-path**: the same decision time for batch and service jobs,
  "to reflect the need to run much of the same code for every job type".
* **multi-path**: a fast code path for batch jobs and a slow one for
  service jobs — "it still schedules only one job at a time".

Both variants are this one class; the difference is whether it is given
one decision-time model or one per job type.
"""

from __future__ import annotations

import numpy as np

from repro.core.cellstate import CellState
from repro.core.placement import randomized_first_fit
from repro.metrics import MetricsCollector
from repro.schedulers.base import DecisionTimeModel, QueueScheduler
from repro.sim import Simulator
from repro.workload.job import Job, JobType


class MonolithicScheduler(QueueScheduler):
    """The paper's baseline: a single serial scheduler over the whole cell."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        metrics: MetricsCollector,
        state: CellState,
        rng: np.random.Generator,
        decision_times: dict[JobType, DecisionTimeModel] | DecisionTimeModel,
        attempt_limit: int = 1000,
    ) -> None:
        super().__init__(name, sim, metrics, decision_times, attempt_limit)
        self.state = state
        self._rng = rng

    def attempt(self, job: Job) -> None:
        """Place directly against the authoritative state.

        The monolithic scheduler is the only writer, so every planned
        claim fits by construction and there are never conflicts.
        """
        plan = randomized_first_fit(
            self.state.free_cpu,
            self.state.free_mem,
            job.cpu_per_task,
            job.mem_per_task,
            job.unplaced_tasks,
            self._rng,
        )
        self.state.claim_batch(plan)
        placed = plan.tasks
        job.unplaced_tasks -= placed
        record = self._attempt_record
        if record is not None:
            record["placed"] = placed
            record["remaining"] = job.unplaced_tasks
        self._start_tasks(self.state, job, plan)
        self._resolve_attempt(job, had_conflict=False)
