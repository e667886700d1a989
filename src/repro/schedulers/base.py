"""Shared machinery for simulated schedulers.

Every architecture in the paper models a scheduler as a *serial server*:
"Our schedulers process one request at a time, so a busy scheduler will
cause enqueued jobs to be delayed" (section 4). :class:`QueueScheduler`
implements that serial service loop — dequeue a job, mark its first
attempt (that instant defines the job's wait time), stay busy for the
modeled decision time, then run the architecture-specific placement
attempt — plus the retry/abandon bookkeeping shared by all
architectures (the 1,000-attempt abandonment limit of section 4).
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.core.cellstate import CellState
from repro.core.retry import StarvationEscalationPolicy
from repro.core.transaction import Plan
from repro.metrics import MetricsCollector
from repro.sim import Event, Simulator
from repro.workload.job import Job, JobType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.chaos import ChaosEngine

#: The paper's measured per-job decision overhead (section 4: "t_job = 0.1 s").
DEFAULT_T_JOB = 0.1
#: The paper's measured per-task decision cost ("t_task = 5 ms").
DEFAULT_T_TASK = 0.005
#: "we limit any single job to 1,000 scheduling attempts" (section 4).
DEFAULT_ATTEMPT_LIMIT = 1000


@dataclass(frozen=True)
class DecisionTimeModel:
    """The paper's linear decision-time model:
    ``t_decision = t_job + t_task * tasks_per_job``."""

    t_job: float = DEFAULT_T_JOB
    t_task: float = DEFAULT_T_TASK

    def __post_init__(self) -> None:
        if self.t_job < 0 or self.t_task < 0:
            raise ValueError("decision time components must be non-negative")

    def duration(self, num_tasks: int) -> float:
        return self.t_job + self.t_task * num_tasks


class QueueScheduler(abc.ABC):
    """A serial scheduling server with a FIFO queue.

    Thinking about a job takes its type's :class:`DecisionTimeModel`
    (one model serves every type). Subclasses implement :meth:`attempt`
    (what happens when thinking finishes: place, commit, then call
    :meth:`_resolve_attempt`). :meth:`begin_attempt` runs when thinking
    *starts* — Omega schedulers take their cell-state snapshot there,
    because the paper's schedulers "refresh their local copy of cell
    state ... when they start looking at a job".

    With tracing on, every attempt ends in one ``sched.attempt`` record
    (docs/OBSERVABILITY.md). Its fields are gathered in
    :attr:`_attempt_record` while the attempt runs: :meth:`attempt`
    adds its plan and commit facts, :meth:`_resolve_attempt` the
    outcome.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        metrics: MetricsCollector,
        decision_times: dict[JobType, DecisionTimeModel] | DecisionTimeModel,
        attempt_limit: int = DEFAULT_ATTEMPT_LIMIT,
        retry_conflicts_at_front: bool = True,
        retry_policy: StarvationEscalationPolicy | None = None,
    ) -> None:
        if attempt_limit < 1:
            raise ValueError(f"attempt_limit must be >= 1, got {attempt_limit}")
        if isinstance(decision_times, DecisionTimeModel):
            decision_times = {job_type: decision_times for job_type in JobType}
        missing = [t for t in JobType if t not in decision_times]
        if missing:
            raise ValueError(f"decision_times missing job types: {missing}")
        self.name = name
        self.sim = sim
        self.metrics = metrics
        self._decision_times = dict(decision_times)
        self.attempt_limit = attempt_limit
        self.retry_conflicts_at_front = retry_conflicts_at_front
        #: Conflict-retry policy (see :mod:`repro.core.retry`). None is
        #: the paper's behaviour: retry immediately at the front,
        #: bounded only by ``attempt_limit``.
        self.retry_policy = retry_policy
        #: Chaos engine hook; set by
        #: :meth:`repro.faults.chaos.ChaosEngine.install` when commit
        #: faults are configured, None otherwise.
        self.chaos: "ChaosEngine | None" = None
        self._queue: deque[Job] = deque()
        self._busy = False
        #: Crash state: a down scheduler serves nothing until restart().
        self._down = False
        #: The pending end-of-think event and its (job, busy_start,
        #: conflict_retry, trace fields) context — the scheduler's
        #: in-flight transaction, lost if it crashes mid-think. The
        #: trace fields are None when tracing is off.
        self._inflight: Event | None = None
        self._inflight_info: tuple[Job, float, bool, dict | None] | None = None
        #: The ``sched.attempt`` fields of the attempt being resolved;
        #: None outside :meth:`_think_complete` or with tracing off.
        self._attempt_record: dict | None = None

    # ------------------------------------------------------------------
    # Submission and the serial service loop
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def is_busy(self) -> bool:
        return self._busy

    @property
    def is_down(self) -> bool:
        """Whether the scheduler is crashed and awaiting restart."""
        return self._down

    @property
    def busy_since(self) -> float | None:
        """Start time of the in-flight think, or None when idle.

        Lets samplers credit the partially-elapsed busy interval that
        :meth:`MetricsCollector.record_busy` only sees at think-complete.
        """
        info = self._inflight_info
        return info[1] if info is not None else None

    def submit(self, job: Job) -> None:
        """Enqueue a newly arrived job."""
        self.metrics.record_submission(job)
        self._queue.append(job)
        self._maybe_start()

    def _requeue(self, job: Job, at_front: bool) -> None:
        if at_front:
            self._queue.appendleft(job)
        else:
            self._queue.append(job)
        self._maybe_start()

    def _maybe_start(self) -> None:
        if self._busy or self._down or not self._queue:
            return
        job = self._queue.popleft()
        if job.first_attempt_time is None:
            job.mark_first_attempt(self.sim.now)
            self.metrics.record_first_attempt(self.name, job)
        conflict_retry = job.requeued_for_conflict
        job.requeued_for_conflict = False
        self._busy = True
        think_time = self.decision_time(job)
        record = None
        if self.sim.recorder.enabled:
            # "The time from state synchronization to the commit attempt
            # is a transaction": its record starts here.
            record = {
                "t0": self.sim.now,
                "queue_depth": len(self._queue),
                "conflict_retry": conflict_retry,
                "unplaced": job.unplaced_tasks,
            }
        self.begin_attempt(job)
        drop = False
        if self.chaos is not None:
            # A commit latency spike keeps the scheduler busy past its
            # decision time, widening the window for conflicts; a drop
            # loses the attempt's work in flight (see _think_complete).
            delay, drop = self.chaos.commit_fault(self, job)
            think_time += delay
            if record is not None and delay:
                record["commit_delay"] = delay
        self._inflight_info = (job, self.sim.now, conflict_retry, record)
        self._inflight = self.sim.after(
            think_time, self._think_complete, job, self.sim.now, conflict_retry, drop
        )

    def _think_complete(
        self, job: Job, busy_start: float, conflict_retry: bool, drop: bool = False
    ) -> None:
        record = self._inflight_info[3]
        self._inflight = None
        self._inflight_info = None
        self.metrics.record_busy(
            self.name, busy_start, self.sim.now, conflict_retry=conflict_retry
        )
        self._busy = False
        # Set before the attempt runs: resolving it may start the next
        # think, which brings its own record.
        self._attempt_record = record
        if drop:
            self._commit_dropped(job)
        else:
            self.attempt(job)
        if record is not None:
            self._attempt_record = None
            self._emit_attempt(job, job.attempts, record)
        self._maybe_start()

    def _emit_attempt(self, job: Job, attempt: int, record: dict) -> None:
        self.sim.recorder.event(
            "sched.attempt",
            t=self.sim.now,
            sched=self.name,
            job=job.job_id,
            attempt=attempt,
            **record,
        )

    def _commit_dropped(self, job: Job, conflicted: bool = True) -> None:
        """Chaos dropped this attempt's commit in flight.

        The thinking happened but its outcome never reached the cell
        state, so the work is accounted as a conflicted transaction and
        the job goes back through the conflict-retry path
        (``conflicted=False``: there was no transaction to count).
        """
        if conflicted:
            self.metrics.record_commit(self.name, conflicted=True, time=self.sim.now)
        self.metrics.record_commit_dropped(self.name)
        record = self._attempt_record
        if record is not None:
            record["dropped"] = True
            if conflicted:
                record["conflicted"] = True
        self._abort_attempt(job)
        self._resolve_attempt(job, had_conflict=conflicted)

    # ------------------------------------------------------------------
    # Crash/restart (driven by the chaos engine)
    # ------------------------------------------------------------------
    def crash(self, requeue: bool = True) -> Job | None:
        """Crash now: the in-flight transaction is lost and the
        scheduler serves nothing until :meth:`restart`.

        The job being thought about (if any) is returned. With
        ``requeue`` (the default, a transient scheduler crash) it goes
        back to the front of the queue — its attempt never completed,
        so no attempt is counted, but the planning work (busy time) is
        already spent. With ``requeue=False`` (a whole-cell blackout)
        the in-flight job is *not* requeued: the caller owns its fate,
        e.g. the federation front door counting it as lost to the
        blackout. Either way the cut attempt's ``sched.attempt`` record
        ends here, with outcome ``crashed``.
        """
        if self._down:
            return None
        self._down = True
        lost: Job | None = None
        if self._inflight is not None:
            self.sim.cancel(self._inflight)
            self._inflight = None
            job, busy_start, conflict_retry, record = self._inflight_info
            self._inflight_info = None
            lost = job
            # The wasted planning work still counts as busyness.
            self.metrics.record_busy(
                self.name, busy_start, self.sim.now, conflict_retry=conflict_retry
            )
            self._busy = False
            self._abort_attempt(job)
            if record is not None:
                record["outcome"] = "crashed"
                self._emit_attempt(job, job.attempts + 1, record)
            if requeue:
                self._requeue(job, at_front=True)
        return lost

    def drain_pending(self) -> list[Job]:
        """Remove and return every queued (not yet in-flight) job.

        Used by the federation front door to migrate a dead cell's
        backlog to surviving cells. Order is preserved (front first).
        """
        drained = list(self._queue)
        self._queue.clear()
        return drained

    def restart(self) -> None:
        """Recover from a crash and resume serving the queue."""
        if not self._down:
            return
        self._down = False
        self._maybe_start()

    def _abort_attempt(self, job: Job) -> None:
        """Discard attempt-scoped state after a crash or commit drop.

        Subclasses clean up what an interrupted attempt left behind
        (Omega drops its private snapshot; a Mesos framework returns
        its held offer)."""

    # ------------------------------------------------------------------
    # Architecture hooks
    # ------------------------------------------------------------------
    def decision_time(self, job: Job) -> float:
        """How long this scheduler thinks about ``job`` (seconds)."""
        return self._decision_times[job.job_type].duration(job.unplaced_tasks)

    def begin_attempt(self, job: Job) -> None:
        """Hook at the start of thinking (Omega snapshots here)."""

    def requeue_delay(self, job: Job) -> float:
        """Seconds a job that found too little room — no conflict — is
        held before it rejoins the back of the queue (a policy's probe
        or cool-off period; conflicts are the retry policy's)."""
        return 0.0

    @abc.abstractmethod
    def attempt(self, job: Job) -> None:
        """Placement attempt at the end of thinking. Implementations
        place/commit, then call :meth:`_resolve_attempt` exactly once."""

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------
    def _resolve_attempt(self, job: Job, had_conflict: bool) -> None:
        """Advance the job's lifecycle after one attempt.

        A job that simply found no room goes to the back so other jobs
        are not blocked behind it. A *conflicted* job does whatever
        :attr:`retry_policy` decides: by default it retries immediately
        at the head of the queue ("the scheduler resyncs its local copy
        of cell state ... and tries again"); the starvation policy
        delays it to the back, escalates it to incremental commits, or
        abandons it.
        """
        job.attempts += 1
        if had_conflict:
            job.conflicts += 1
        record = self._attempt_record
        if job.is_fully_scheduled:
            outcome = "rescheduled"
            if job.fully_scheduled_time is None:
                # Count each job once, even if preemption later sends it
                # back through scheduling.
                self.metrics.record_scheduled(self.name, job, self.sim.now)
                outcome = "scheduled"
            job.fully_scheduled_time = self.sim.now
            if record is not None:
                record["outcome"] = outcome
        elif job.attempts >= self.attempt_limit:
            self._abandon(job, reason="attempt-limit")
        else:
            policy = self.retry_policy
            outcome = "requeued"
            if had_conflict and policy is None:
                at_front = self.retry_conflicts_at_front
                delay = 0.0
            elif had_conflict:
                delay = policy.delay(job)
                if delay is None:
                    self._abandon(job, reason="conflict-cap")
                    return
                if policy.escalates(job):
                    self._escalate(job)
                    outcome = "escalated"
                at_front = False
            else:
                at_front = False
                delay = self.requeue_delay(job)
            job.requeued_for_conflict = had_conflict
            if record is not None:
                record["outcome"] = outcome
                record["at_front"] = at_front
                if delay > 0:
                    record["delay"] = delay
            if delay > 0:
                self.sim.after(delay, self._requeue, job, at_front)
            else:
                self._requeue(job, at_front=at_front)

    def _abandon(self, job: Job, reason: str) -> None:
        """Terminal failure: the job stops being retried, explicitly."""
        job.abandoned = True
        self.metrics.record_abandoned(self.name, job, reason=reason)
        record = self._attempt_record
        if record is not None:
            record["outcome"] = "abandoned"
            record["reason"] = reason

    def _escalate(self, job: Job) -> None:
        """Switch ``job`` to incremental commit mode (paper section 3.6:
        repeatedly-conflicting jobs stop gang scheduling so partial
        progress lands). Schedulers honour the flag in attempt()."""
        job.escalated = True
        self.metrics.record_escalated(
            self.name, attempts=job.attempts, policy=self.retry_policy.name
        )

    def _start_tasks(self, state: CellState, job: Job, plan: Plan) -> None:
        """Schedule the resource release for tasks that just started:
        one completion event per commit, since its tasks end together."""
        if not plan.machines:
            return
        self.sim.after(job.duration, _task_end, state, plan)


def _task_end(state: CellState, plan: Plan) -> None:
    """The tasks one commit started have ended: free them in plan order."""
    state.release_batch(plan)
