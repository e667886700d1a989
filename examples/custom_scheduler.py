#!/usr/bin/env python3
"""Writing a custom specialized scheduler against the public API.

The Omega paper's flexibility pitch is that new scheduling policies are
plain new schedulers over the shared cell state — no changes to a
central allocator. Here a new scheduler is a *plan* function —
``(snapshot, job, rng) -> claims`` — handed to :class:`OmegaScheduler`,
which does the rest: snapshot, optimistic commit, bookkeeping, retries.

This example builds a *canary* scheduler: it places one task of a job
first (the canary), waits for it to "survive" a probe period, and only
then commits the rest of the job. It composes with a normal batch
scheduler running in parallel on the same cell state, and mirrors how
real cluster managers roll out risky jobs.

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

PROBE_SECONDS = 30.0


def canary_plan(snapshot, job, rng):
    """Ask for one task while the job has none running, then the rest."""
    canary = job.placed_tasks == 0 and job.num_tasks > 1
    return randomized_first_fit(
        snapshot.free_cpu,
        snapshot.free_mem,
        job.cpu_per_task,
        job.mem_per_task,
        1 if canary else job.unplaced_tasks,
        rng,
    )


class CanaryScheduler(OmegaScheduler):
    """Holds a job for the probe period once its canary is running."""

    def requeue_delay(self, job: Job) -> float:
        if job.placed_tasks != 1:
            return 0.0
        print(
            f"[{self.sim.now:8.2f}s] canary for job {job.job_id} placed; "
            f"probing for {PROBE_SECONDS:.0f}s"
        )
        return PROBE_SECONDS


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
        placement=canary_plan,
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
    print(f"  remainder scheduled at t={risky.fully_scheduled_time:.2f}s")
    print(f"cluster utilization now: {state.cpu_utilization:.1%}")
    print(
        "batch scheduler busyness: "
        f"{metrics.median_busyness('batch', 300.0):.4f} "
        "(unaffected by the canary logic)"
    )


if __name__ == "__main__":
    main()
