"""Jobs and tasks.

A job is one or more tasks (paper section 2.1: "sometimes thousands of
tasks"). Following the paper's observation that "most jobs in our
real-life workloads have tasks with identical requirements", every task
of a job shares the same CPU/RAM request and duration; a job therefore
carries per-task requirements plus a task count, and per-task identity
only materializes as placement claims.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.cellstate import EPSILON


class JobType(enum.Enum):
    """The paper's two-way workload split (section 2.1).

    BATCH: performs a computation and finishes; fast turnaround matters.
    SERVICE: long-running end-user or infrastructure service; careful
    placement matters.
    """

    BATCH = "batch"
    SERVICE = "service"


#: Default precedence bands by job type. Mirrors the paper's workload
#: split, where "we put all low priority jobs and those marked as 'best
#: effort' or 'batch' into the batch category" — service jobs sit in
#: the higher-precedence bands.
DEFAULT_PRECEDENCE = {JobType.BATCH: 0, JobType.SERVICE: 10}


@dataclass
class Job:
    """A schedulable job: ``num_tasks`` identical tasks.

    The scheduling-progress fields (``unplaced_tasks``, ``attempts``,
    ``conflicts``, timing marks) are written by schedulers as the job
    moves through its lifecycle; everything else is immutable workload
    description.
    """

    job_type: JobType
    submit_time: float
    num_tasks: int
    cpu_per_task: float
    mem_per_task: float
    duration: float
    #: Unique within one run: drawn from the run's
    #: :attr:`repro.world.RunContext.job_ids` by whatever creates the job
    #: (schedulers hash on it, so it must not depend on earlier runs).
    job_id: int
    constraints: Sequence[Any] = ()
    #: Relative importance on the cell-wide precedence scale (paper
    #: section 3.4: all schedulers "must agree on ... a common scale for
    #: expressing the relative importance of jobs, called precedence").
    #: Higher values may preempt lower ones where preemption is enabled.
    precedence: int = 0

    # -- scheduling progress ------------------------------------------------
    unplaced_tasks: int = field(init=False)
    attempts: int = 0
    conflicts: int = 0
    first_attempt_time: float | None = None
    fully_scheduled_time: float | None = None
    abandoned: bool = False
    #: Whether the job's next attempt is a retry caused by a commit
    #: conflict (as opposed to a first attempt or a capacity retry).
    #: Used for the "no conflicts" busyness approximation of Figure 12c.
    requeued_for_conflict: bool = field(init=False, default=False)
    #: Whether a starvation-escalation retry policy switched this job to
    #: incremental commit mode (the paper's section 3.6 remedy for
    #: repeatedly-conflicting gang-scheduled jobs).
    escalated: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        if self.num_tasks < 1:
            raise ValueError(f"a job needs at least one task, got {self.num_tasks}")
        if self.cpu_per_task < 0 or self.mem_per_task < 0:
            raise ValueError("per-task resource requests must be non-negative")
        if self.cpu_per_task <= EPSILON and self.mem_per_task <= EPSILON:
            # A sub-EPSILON request is indistinguishable from zero in
            # the cell-state accounting, so reject it the same way.
            raise ValueError("a task must request some resource")
        if self.duration <= 0:
            raise ValueError(f"task duration must be positive, got {self.duration}")
        self.unplaced_tasks = self.num_tasks

    # -- derived quantities ---------------------------------------------------
    @property
    def placed_tasks(self) -> int:
        return self.num_tasks - self.unplaced_tasks

    @property
    def is_fully_scheduled(self) -> bool:
        return self.unplaced_tasks == 0

    @property
    def total_cpu(self) -> float:
        """Aggregate CPU request of the whole job (cores)."""
        return self.num_tasks * self.cpu_per_task

    @property
    def total_mem(self) -> float:
        """Aggregate RAM request of the whole job (GB)."""
        return self.num_tasks * self.mem_per_task

    def mark_first_attempt(self, now: float) -> None:
        """Record the start of the first scheduling attempt.

        Job wait time (paper section 4, "Metrics") is defined as
        ``first_attempt_time - submit_time``.
        """
        if self.first_attempt_time is None:
            self.first_attempt_time = now

    @property
    def wait_time(self) -> float | None:
        """Queueing delay before the first scheduling attempt, if started."""
        if self.first_attempt_time is None:
            return None
        return self.first_attempt_time - self.submit_time
