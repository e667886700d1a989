"""The federation front door: routing, health checks, migration,
and the end-to-end job accounting invariant.

The front door owns the federation's workload: every synthesized job
enters here and is routed to a member cell under one of the pluggable
policies of :data:`~repro.federation.config.ROUTING_POLICIES`, driven
only by the cells' eventually-consistent digests. Health checking is
deterministic: a submission to an unreachable cell fails after a fixed
``route_timeout``, the cell is suspended under exponential backoff, and
the job is re-routed — bounded by ``max_reroutes`` with explicit
abandonment ("reroute-cap"). When the chaos engine blacks out a cell,
its drained backlog is migrated here — bounded by ``max_migrations``
("migration-cap") — and its lost in-flight jobs are recorded so that

    submitted == scheduled + pending + abandoned + lost_to_blackout

holds as a checked invariant (:meth:`FrontDoor.check_accounting`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.federation.cells import FederatedCell
from repro.federation.config import FederationConfig
from repro.sim import RandomStreams, Simulator
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class FederationAccountingError(AssertionError):
    """The end-to-end job accounting invariant failed: a job was
    silently lost (or double-counted) somewhere between the front door
    and the cells."""


#: Smallest weight a cell keeps under weighted-random routing, so a
#: fully-utilized cell still receives a trickle of load (and the walk
#: over weights never divides by zero).
MIN_WEIGHT = 0.01


class FrontDoor:
    """Routes the federation's arrival stream across member cells."""

    def __init__(
        self,
        sim: Simulator,
        cells: Sequence[FederatedCell],
        config: FederationConfig,
        streams: RandomStreams,
    ) -> None:
        self.sim = sim
        self.cells = list(cells)
        self.config = config
        self._rr_next = 0
        self._router_rng: "np.random.Generator | None" = None
        if config.policy == "weighted-random":
            # Only the randomized policy draws; the deterministic
            # policies never touch a stream, so switching between them
            # cannot perturb any other stochastic process in the run.
            self._router_rng = streams.stream("fed.router")
        # -- health state, per cell index ------------------------------
        self.failures = [0] * len(self.cells)
        self.suspended_until = [0.0] * len(self.cells)
        # -- accounting -------------------------------------------------
        #: Every job that entered the federation, in arrival order, less
        #: the ``pruned`` ones: each time the list doubles, the jobs in it
        #: that are scheduled (a final state, and the class that wins in
        #: :meth:`accounting`) are dropped and counted instead.
        self.jobs: list[Job] = []
        self.pruned = 0
        self._prune_at = 1
        self.submitted = 0
        self.jobs_migrated = 0
        self.jobs_rerouted = 0
        self.route_timeouts = 0
        self.lost_to_blackout: set[int] = set()
        self.abandoned_by_reason: dict[str, int] = {}
        self._reroutes: dict[int, int] = {}
        self._migrations: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """A new job arrived at the federation (workload-generator hook)."""
        self.submitted += 1
        jobs = self.jobs
        jobs.append(job)
        if len(jobs) >= self._prune_at:
            kept = [queued for queued in jobs if queued.fully_scheduled_time is None]
            self.pruned += len(jobs) - len(kept)
            self.jobs = kept
            self._prune_at = max(2 * len(kept), 1)
        self._route(job)

    def migrate(self, jobs: Sequence[Job], from_cell: FederatedCell) -> None:
        """Re-home a dead cell's drained backlog, bounded per job."""
        rec = self.sim.recorder
        for job in jobs:
            count = self._migrations.get(job.job_id, 0) + 1
            self._migrations[job.job_id] = count
            if count > self.config.max_migrations:
                self._abandon(job, "migration-cap")
                continue
            self.jobs_migrated += 1
            if rec.enabled:
                rec.event(
                    "fed.migrate",
                    t=self.sim.now,
                    job=job.job_id,
                    cell=from_cell.name,
                    migration=count,
                )
            self._route(job)

    def record_lost(self, job: Job, cell: FederatedCell) -> None:
        """A blackout destroyed this job's in-flight transaction."""
        self.lost_to_blackout.add(job.job_id)
        rec = self.sim.recorder
        if rec.enabled:
            rec.event(
                "fed.job_lost", t=self.sim.now, job=job.job_id, cell=cell.name
            )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, job: Job) -> None:
        cell = self._pick()
        if cell is None:
            # Every cell is suspended: hold the job until the earliest
            # suspension expires, charging its reroute budget so a
            # permanently-dead federation abandons instead of spinning.
            wake = max(min(self.suspended_until), self.sim.now)
            rec = self.sim.recorder
            if rec.enabled:
                rec.event(
                    "fed.route_stalled", t=self.sim.now, job=job.job_id, until=wake
                )
            self.sim.at(wake, self._retry_route, job)
            return
        self._deliver(job, cell)

    def _retry_route(self, job: Job) -> None:
        if not self._charge_reroute(job):
            return
        self._route(job)

    def _deliver(self, job: Job, cell: FederatedCell) -> None:
        if cell.reachable:
            self.failures[cell.index] = 0
            cell.submit(job)
            return
        # The cell is dark: the submission hangs for the deterministic
        # health-check timeout before the front door gives up on it.
        self.sim.after(self.config.route_timeout, self._route_failed, job, cell)

    def _route_failed(self, job: Job, cell: FederatedCell) -> None:
        index = cell.index
        self.failures[index] += 1
        self.route_timeouts += 1
        backoff = min(
            self.config.backoff_cap,
            self.config.backoff_base * 2.0 ** (self.failures[index] - 1),
        )
        self.suspended_until[index] = self.sim.now + backoff
        rec = self.sim.recorder
        if rec.enabled:
            rec.event(
                "fed.route_timeout",
                t=self.sim.now,
                job=job.job_id,
                cell=cell.name,
                failures=self.failures[index],
                backoff=backoff,
            )
        if not self._charge_reroute(job):
            return
        self._route(job)

    def _charge_reroute(self, job: Job) -> bool:
        count = self._reroutes.get(job.job_id, 0) + 1
        self._reroutes[job.job_id] = count
        if count > self.config.max_reroutes:
            self._abandon(job, "reroute-cap")
            return False
        self.jobs_rerouted += 1
        return True

    def _abandon(self, job: Job, reason: str) -> None:
        """Terminal front-door failure, accounted explicitly."""
        job.abandoned = True
        self.abandoned_by_reason[reason] = (
            self.abandoned_by_reason.get(reason, 0) + 1
        )
        rec = self.sim.recorder
        if rec.enabled:
            rec.event(
                "fed.abandoned",
                t=self.sim.now,
                job=job.job_id,
                reason=reason,
            )

    # ------------------------------------------------------------------
    # Policies
    # ------------------------------------------------------------------
    def _eligible(self) -> list[FederatedCell]:
        now = self.sim.now
        return [
            cell for cell in self.cells if self.suspended_until[cell.index] <= now
        ]

    def _pick(self) -> FederatedCell | None:
        eligible = self._eligible()
        if not eligible:
            return None
        policy = self.config.policy
        if policy == "round-robin":
            return self._pick_round_robin(eligible)
        if policy == "least-loaded":
            return self._pick_least_loaded(eligible)
        return self._pick_weighted_random(eligible)

    def _pick_round_robin(self, eligible: list[FederatedCell]) -> FederatedCell:
        """The next eligible cell in fixed rotation order."""
        total = len(self.cells)
        eligible_indices = {cell.index for cell in eligible}
        for offset in range(total):
            index = (self._rr_next + offset) % total
            if index in eligible_indices:
                self._rr_next = (index + 1) % total
                return self.cells[index]
        raise AssertionError("unreachable: eligible list was non-empty")

    def _pick_least_loaded(self, eligible: list[FederatedCell]) -> FederatedCell:
        """Lowest advertised utilization; ties go to the lowest index."""
        return min(eligible, key=lambda cell: (cell.digest().utilization, cell.index))

    def _pick_weighted_random(
        self, eligible: list[FederatedCell]
    ) -> FederatedCell:
        """Randomized spread proportional to advertised free capacity."""
        assert self._router_rng is not None
        weights = [
            max(MIN_WEIGHT, 1.0 - cell.digest().utilization) for cell in eligible
        ]
        target = float(self._router_rng.random()) * sum(weights)
        cumulative = 0.0
        for cell, weight in zip(eligible, weights):
            cumulative += weight
            if target < cumulative:
                return cell
        return eligible[-1]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def accounting(self) -> dict[str, int]:
        """Classify every job the federation ever accepted (the pruned
        ones are scheduled).

        Classification priority handles overlap deterministically: a
        job that eventually scheduled counts as scheduled even if an
        earlier home for it blacked out; an abandoned job counts as
        abandoned even if it once sat in a dead cell's queue.
        """
        scheduled = self.pruned
        pending = abandoned = lost = 0
        for job in self.jobs:
            if job.fully_scheduled_time is not None:
                scheduled += 1
            elif job.abandoned:
                abandoned += 1
            elif job.job_id in self.lost_to_blackout:
                lost += 1
            else:
                pending += 1
        return {
            "submitted": self.submitted,
            "scheduled": scheduled,
            "pending": pending,
            "abandoned": abandoned,
            "lost_to_blackout": lost,
        }

    def check_accounting(self) -> dict[str, int]:
        """Raise unless submitted == scheduled + pending + abandoned +
        lost_to_blackout — i.e. no job was silently lost."""
        counts = self.accounting()
        total = (
            counts["scheduled"]
            + counts["pending"]
            + counts["abandoned"]
            + counts["lost_to_blackout"]
        )
        if counts["submitted"] != total:
            raise FederationAccountingError(
                f"job accounting does not balance: submitted "
                f"{counts['submitted']} != scheduled {counts['scheduled']} "
                f"+ pending {counts['pending']} + abandoned "
                f"{counts['abandoned']} + lost_to_blackout "
                f"{counts['lost_to_blackout']} (= {total})"
            )
        if counts["submitted"] != len(self.jobs) + self.pruned:
            raise FederationAccountingError(
                f"submission ledger out of sync: counted {counts['submitted']} "
                f"but tracked {len(self.jobs)} jobs and pruned {self.pruned}"
            )
        return counts
