"""The Omega shared-state scheduler (paper section 3.4).

Each scheduler runs the loop:

1. **sync** — take a private snapshot of the shared cell state when it
   starts looking at a job;
2. **think** — spend the modeled decision time
   (``t_job + t_task x tasks``) planning placements on the snapshot
   with randomized first fit;
3. **commit** — attempt an atomic, optimistically-concurrent commit of
   the planned claims against the live cell state;
4. **resync/retry** — on conflict, immediately retry the job (with a
   fresh snapshot); on insufficient capacity, requeue it behind other
   work.

Schedulers never lock anything and never wait for each other: "Omega
schedulers operate completely in parallel and do not have to wait for
jobs in other schedulers, and there is no inter-scheduler head of line
blocking."

:meth:`OmegaScheduler.attempt` is that loop's only body. A specialized
scheduler supplies the two things that differ: a *plan* (``placement``:
which claims to ask for, given the snapshot) and, rarely, a *commit*
(how the claims are applied). :class:`PreemptingOmegaScheduler` is one
of each; :class:`repro.mapreduce.MapReduceScheduler` is a plan.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.cellstate import CellSnapshot, CellState
from repro.core.placement import placement_fn, randomized_first_fit
from repro.core.preemption import AllocationLedger, commit_with_preemption
from repro.core.retry import StarvationEscalationPolicy
from repro.core.transaction import (
    Claim,
    CommitMode,
    CommitResult,
    ConflictMode,
    commit,
)
from repro.metrics import MetricsCollector
from repro.schedulers.base import DecisionTimeModel, QueueScheduler
from repro.sim import Simulator
from repro.workload.job import Job, JobType

#: Signature of a pluggable placement planner: (snapshot, job, rng) -> claims.
#: The lightweight simulator uses randomized first fit; the high-fidelity
#: simulator plugs in the constraint-aware scoring planner.
PlacementFn = Callable[[CellSnapshot, Job, np.random.Generator], list[Claim]]

#: Signature of a pluggable commit: (claims, snapshot, job, commit_mode)
#: -> result. The claims are non-empty and were planned on ``snapshot``;
#: ``commit_mode`` is the job's effective mode (escalation applied).
CommitFn = Callable[[list[Claim], CellSnapshot, Job, CommitMode], CommitResult]


class OmegaScheduler(QueueScheduler):
    """One shared-state scheduler with full visibility of the cell."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        metrics: MetricsCollector,
        state: CellState,
        rng: np.random.Generator,
        decision_times: dict[JobType, DecisionTimeModel] | DecisionTimeModel,
        conflict_mode: ConflictMode = ConflictMode.FINE,
        commit_mode: CommitMode = CommitMode.INCREMENTAL,
        placement: PlacementFn | None = None,
        attempt_limit: int = 1000,
        retry_conflicts_at_front: bool = True,
        ledger: AllocationLedger | None = None,
        conflict_avoidance_cooldown: float = 0.0,
        retry_policy: StarvationEscalationPolicy | None = None,
        commit: CommitFn | None = None,
    ) -> None:
        super().__init__(
            name,
            sim,
            metrics,
            decision_times,
            attempt_limit,
            retry_conflicts_at_front=retry_conflicts_at_front,
            retry_policy=retry_policy,
        )
        self.state = state
        #: Optional allocation ledger. When set, this scheduler's
        #: running tasks are registered (and therefore visible to — and
        #: preemptible by — higher-precedence schedulers), and evicted
        #: tasks automatically re-enter this scheduler's queue.
        self.ledger = ledger
        self._rng = rng
        self.conflict_mode = conflict_mode
        self.commit_mode = commit_mode
        #: The two seams of :meth:`attempt`: the plan (randomized first
        #: fit unless given) and the commit (a given one shadows the
        #: optimistic :meth:`_commit`; storing the bound method instead
        #: would tie the scheduler, and its view, into a reference cycle).
        self._placement = placement or placement_fn("random-first-fit")
        if commit is not None:
            self._commit = commit
        self._snapshot: CellSnapshot | None = None
        #: Hot-machine avoidance (the paper's section 8 future-work
        #: direction: "techniques from the database community ... to
        #: reduce the likelihood and effects of interference"). Like
        #: hot-key backoff in OCC stores, machines whose claims recently
        #: conflicted are skipped for ``conflict_avoidance_cooldown``
        #: seconds, steering contending schedulers apart. 0 disables it.
        if conflict_avoidance_cooldown < 0:
            raise ValueError(
                f"cooldown must be >= 0, got {conflict_avoidance_cooldown}"
            )
        self.conflict_avoidance_cooldown = conflict_avoidance_cooldown
        self._hot_machines: dict[int, float] = {}
        #: Persistent private view of cell state, reused across attempts
        #: via incremental :meth:`~repro.core.cellstate.CellSnapshot.resync`
        #: instead of a fresh full copy per transaction.
        self._view: CellSnapshot | None = None

    # ------------------------------------------------------------------
    def begin_attempt(self, job: Job) -> None:
        """Sync: refresh the private copy of cell state.

        The first sync takes a full snapshot; every later one — the
        retry loop's "resyncs its local copy ... and tries again" —
        applies only the machines touched since (see
        :meth:`repro.core.cellstate.CellSnapshot.resync`).
        """
        if self._view is None:
            self._view = self.state.snapshot(self.sim.now)
        else:
            self._view.resync(self.state, self.sim.now)
        self._snapshot = self._view

    def _mask_hot_machines(self, snapshot: CellSnapshot) -> None:
        """Blank out recently-conflicted machines in the private copy.

        The snapshot is this attempt's scratch space, so zeroing the
        hot machines' free resources simply removes them from the
        placement candidate set; expired entries are dropped.
        """
        if not self._hot_machines:
            return
        now = self.sim.now
        expired = [m for m, expiry in sorted(self._hot_machines.items()) if expiry <= now]
        for machine in expired:
            del self._hot_machines[machine]
        for machine in sorted(self._hot_machines):
            snapshot.free_cpu[machine] = 0.0
            snapshot.free_mem[machine] = 0.0
            # The view is reused across attempts; the next resync must
            # restore these machines from the master copy.
            snapshot.note_local_write(machine)

    def _note_conflicts(self, rejected) -> None:
        if self.conflict_avoidance_cooldown <= 0:
            return
        expiry = self.sim.now + self.conflict_avoidance_cooldown
        for claim in rejected:
            self._hot_machines[claim.machine] = expiry

    def attempt(self, job: Job) -> None:
        """One transaction: plan on the snapshot, commit, apply, resolve."""
        snapshot = self._snapshot
        self._snapshot = None
        if snapshot is None:  # pragma: no cover - loop always snapshots first
            raise RuntimeError("attempt() without begin_attempt()")

        if self.conflict_avoidance_cooldown > 0:
            self._mask_hot_machines(snapshot)

        record = self._attempt_record
        claims = self._placement(snapshot, job, self._rng)

        # A starvation-escalated job (section 3.6) commits incrementally
        # from here on, so its non-conflicting tasks land even though
        # the scheduler's configured mode is gang/all-or-nothing.
        commit_mode = self.commit_mode
        if job.escalated and commit_mode is CommitMode.ALL_OR_NOTHING:
            commit_mode = CommitMode.INCREMENTAL

        if commit_mode is CommitMode.ALL_OR_NOTHING:
            planned = sum(claim.count for claim in claims)
            if planned < job.unplaced_tasks:
                # Gang scheduling needs room for every task; the private
                # copy showed too little, so no transaction is issued.
                # No hoarding: the resources stay usable by others.
                if record is not None:
                    record["skip"] = "gang_insufficient_plan"
                self._resolve_attempt(job, had_conflict=False)
                return

        if not claims:
            # "Assuming at least one task got scheduled, a transaction
            # ... is issued" — nothing could be planned, so no commit.
            if record is not None:
                record["skip"] = "no_placement"
            self._resolve_attempt(job, had_conflict=False)
            return

        result = self._commit(claims, snapshot, job, commit_mode)
        if record is not None:
            record["claims"] = len(claims)
            record["tasks"] = sum(claim.count for claim in claims)
            record["accepted"] = result.accepted_tasks
            record["rejected"] = result.rejected_tasks
            record["conflicted"] = result.conflicted
            if result.preempted_tasks:
                record["preempted"] = result.preempted_tasks
            if result.conflicted and commit_mode is CommitMode.ALL_OR_NOTHING:
                record["gang_aborted"] = True
            if result.conflicts:
                record["conflicts"] = result.conflicts
        self.metrics.record_commit(self.name, result.conflicted, self.sim.now)
        if result.preempted_tasks:
            self.metrics.record_preemption_caused(self.name, result.preempted_tasks)
        if result.conflicted:
            self._note_conflicts(result.rejected)
        self._apply(job, result)
        self._start_tasks(self.state, job, result.accepted)
        self._resolve_attempt(job, had_conflict=result.conflicted)

    def _commit(
        self,
        claims: list[Claim],
        snapshot: CellSnapshot,
        job: Job,
        commit_mode: CommitMode,
    ) -> CommitResult:
        """The default commit: validate against the live cell state."""
        return commit(
            self.state,
            claims,
            snapshot,
            conflict_mode=self.conflict_mode,
            commit_mode=commit_mode,
            tracing=self.sim.recorder.enabled,
        )

    def _apply(self, job: Job, result: CommitResult) -> None:
        """Book what the commit accepted against the job."""
        job.unplaced_tasks -= result.accepted_tasks

    def _abort_attempt(self, job: Job) -> None:
        """Crash/commit-drop cleanup: discard the private snapshot (the
        in-flight transaction). The persistent view resyncs next time."""
        self._snapshot = None

    # ------------------------------------------------------------------
    # Ledger integration (registration + preemption victims)
    # ------------------------------------------------------------------
    def _start_tasks(self, state: CellState, job: Job, claims) -> None:
        if self.ledger is None:
            super()._start_tasks(state, job, claims)
            return
        # Commit already claimed the resources; the ledger only takes
        # over lifetime bookkeeping (end events, preemption victims).
        for claim in claims:
            self.ledger.register(
                claim,
                precedence=job.precedence,
                duration=job.duration,
                on_preempt=lambda record, count, job=job: self._on_preempted(
                    job, count
                ),
                already_claimed=True,
                owner=self.name,
            )

    def _on_preempted(self, job: Job, count: int) -> None:
        """A higher-precedence scheduler evicted ``count`` of our tasks."""
        self.metrics.record_preemption_victim(self.name, count)
        was_complete = job.is_fully_scheduled
        job.unplaced_tasks += count
        if was_complete and not job.abandoned:
            # The job was done scheduling; put it back in our queue so
            # the evicted tasks get re-placed.
            self._requeue(job, at_front=False)


class PreemptingOmegaScheduler(OmegaScheduler):
    """An Omega scheduler that uses its precedence to preempt.

    Paper section 3.4: a scheduler "has complete freedom to lay claim to
    any available cluster resources ... even ones that another scheduler
    has already acquired", and "a gang-scheduled job can preempt
    lower-priority tasks once sufficient resources are available".

    It is a plan — first fit over free *plus reclaimable*
    (lower-precedence) resources — and a commit —
    :func:`~repro.core.preemption.commit_with_preemption`, which evicts.
    ``options`` are :class:`OmegaScheduler`'s other keyword arguments.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        metrics: MetricsCollector,
        state: CellState,
        rng: np.random.Generator,
        decision_times: dict[JobType, DecisionTimeModel] | DecisionTimeModel,
        ledger: AllocationLedger,
        **options,
    ) -> None:
        def plan(snapshot, job, rng) -> list[Claim]:
            plan_cpu = snapshot.free_cpu.copy()
            plan_mem = snapshot.free_mem.copy()
            for record in ledger.records():
                if record.precedence < job.precedence:
                    plan_cpu[record.machine] += record.total_cpu
                    plan_mem[record.machine] += record.total_mem
            return randomized_first_fit(
                plan_cpu,
                plan_mem,
                job.cpu_per_task,
                job.mem_per_task,
                job.unplaced_tasks,
                rng,
            )

        def evict_and_commit(claims, snapshot, job, commit_mode) -> CommitResult:
            return commit_with_preemption(
                state, ledger, claims, job.precedence, commit_mode, tracing=sim.recorder.enabled
            )

        super().__init__(
            name,
            sim,
            metrics,
            state,
            rng,
            decision_times,
            placement=plan,
            commit=evict_and_commit,
            ledger=ledger,
            **options,
        )
