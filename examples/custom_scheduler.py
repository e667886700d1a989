#!/usr/bin/env python3
"""Writing a custom specialized scheduler against the public API.

The Omega paper's flexibility pitch is that new scheduling policies are
plain new schedulers over the shared cell state — no changes to a
central allocator. This example builds a *canary* scheduler: it places
one task of a job first (the canary), waits for it to "survive" a probe
period, and only then commits the rest of the job. It composes with a
normal batch scheduler running in parallel on the same cell state.

This mirrors how real cluster managers roll out risky jobs, and shows
the ingredients any custom scheduler uses: snapshots, placement
planning, optimistic commit, and the simulator clock.

Usage::

    python examples/custom_scheduler.py
"""

import numpy as np

from repro import (
    Cell,
    CellState,
    DecisionTimeModel,
    Job,
    JobType,
    MetricsCollector,
    OmegaScheduler,
    Simulator,
    randomized_first_fit,
)
from repro.core.transaction import commit


class CanaryScheduler(OmegaScheduler):
    """Places one canary task, probes it, then commits the remainder."""

    PROBE_SECONDS = 30.0

    def attempt(self, job: Job) -> None:
        snapshot = self._snapshot
        self._snapshot = None
        if job.placed_tasks == 0 and job.num_tasks > 1:
            # Phase 1: commit only the canary.
            claims = randomized_first_fit(
                snapshot.free_cpu,
                snapshot.free_mem,
                job.cpu_per_task,
                job.mem_per_task,
                1,
                self._rng,
            )
            if not claims:
                self._resolve_attempt(job, had_conflict=False)
                return
            result = commit(self.state, claims, snapshot, self.conflict_mode)
            self.metrics.record_commit(self.name, result.conflicted, self.sim.now)
            if result.accepted_tasks == 0:
                self._resolve_attempt(job, had_conflict=True)
                return
            job.unplaced_tasks -= 1
            self._start_tasks(self.state, job, result.accepted)
            print(
                f"[{self.sim.now:8.2f}s] canary for job {job.job_id} placed on "
                f"machine {result.accepted[0].machine}; probing for "
                f"{self.PROBE_SECONDS:.0f}s"
            )
            # Phase 2 happens after the probe period: requeue the job.
            job.attempts += 1
            self.sim.after(self.PROBE_SECONDS, self._requeue, job, False)
            return
        # Phase 2 (or single-task jobs): normal Omega placement of the rest.
        self._snapshot = snapshot
        super().attempt(job)


def main() -> None:
    sim = Simulator()
    metrics = MetricsCollector(period=3600.0)
    state = CellState(Cell.homogeneous(50, cpu_per_machine=4.0, mem_per_machine=16.0))
    rng = np.random.default_rng(0)

    canary = CanaryScheduler(
        "canary",
        sim,
        metrics,
        state,
        np.random.default_rng(1),
        DecisionTimeModel(t_job=0.5),
    )
    batch = OmegaScheduler(
        "batch",
        sim,
        metrics,
        state,
        np.random.default_rng(2),
        DecisionTimeModel(),
    )

    # A risky service job goes through the canary scheduler...
    risky = Job(
        job_type=JobType.SERVICE,
        submit_time=0.0,
        num_tasks=20,
        cpu_per_task=1.0,
        mem_per_task=2.0,
        duration=3600.0,
        job_id=1,
    )
    canary.submit(risky)
    # ...while ordinary batch jobs flow through the batch scheduler on
    # the same shared cell state, completely unaffected.
    for index in range(10):
        sim.at(
            float(index * 5),
            batch.submit,
            Job(
                job_type=JobType.BATCH,
                submit_time=float(index * 5),
                num_tasks=int(rng.integers(1, 8)),
                cpu_per_task=0.5,
                mem_per_task=1.0,
                duration=120.0,
                job_id=index + 2,
            ),
        )

    sim.run(until=300.0)
    print()
    print(f"risky job fully scheduled: {risky.is_fully_scheduled}")
    print(f"  canary phase + main phase attempts: {risky.attempts}")
    print(f"  scheduled at t={risky.fully_scheduled_time:.2f}s")
    print(f"cluster utilization now: {state.cpu_utilization:.1%}")
    print(
        "batch scheduler busyness: "
        f"{metrics.median_busyness('batch', 300.0):.4f} "
        "(unaffected by the canary logic)"
    )


if __name__ == "__main__":
    main()
