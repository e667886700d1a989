#!/usr/bin/env python3
"""Cluster-wide behaviours over shared state: precedence preemption,
per-scheduler quotas, and post-facto policy auditing (paper section 3.4).

Omega has no central policy engine. Instead:

* schedulers agree on a *precedence* scale, and high-precedence work
  may preempt lower-precedence tasks ("free-for-all, priority
  preemption", Table 1);
* "individual schedulers have configuration settings to limit the total
  amount of resources they may claim, and to limit the number of jobs
  they admit";
* compliance is "audited post facto to eliminate the need for checks in
  a scheduler's critical code path".

This example runs all three mechanisms together on one shared cell.

Usage::

    python examples/preemption_and_quotas.py
"""

import numpy as np

from repro import (
    Cell,
    CellState,
    DecisionTimeModel,
    Job,
    JobType,
    MetricsCollector,
    Simulator,
)
from repro.core import AllocationLedger, PreemptingOmegaScheduler
from repro.core.limits import LimitedOmegaScheduler, PolicyMonitor, SchedulerLimits


def main() -> None:
    sim = Simulator()
    metrics = MetricsCollector(period=600.0)
    state = CellState(Cell.homogeneous(20, cpu_per_machine=4.0, mem_per_machine=16.0))
    ledger = AllocationLedger(state, sim)

    # A batch scheduler capped at 40 cores and 30 admitted jobs.
    batch = LimitedOmegaScheduler(
        "batch",
        sim,
        metrics,
        state,
        np.random.default_rng(0),
        DecisionTimeModel(),
        limits=SchedulerLimits(max_cpu=40.0, max_admitted_jobs=30),
        ledger=ledger,  # registered tasks are visible — and preemptible
    )
    # A high-precedence service scheduler that may preempt batch tasks.
    service = PreemptingOmegaScheduler(
        "service",
        sim,
        metrics,
        state,
        np.random.default_rng(1),
        DecisionTimeModel(t_job=1.0),
        ledger=ledger,
    )
    # The post-facto auditor: nothing on the fast path, just monitoring.
    monitor = PolicyMonitor(
        sim,
        ledger,
        limits={"service": SchedulerLimits(max_cpu=30.0)},
        interval=60.0,
    )
    monitor.start(until=1800.0)

    # Flood the batch scheduler: 50 submissions against a 30-job limit.
    for index in range(50):
        sim.at(
            float(index),
            batch.submit,
            Job(
                job_type=JobType.BATCH,
                submit_time=float(index),
                num_tasks=4,
                cpu_per_task=0.5,
                mem_per_task=1.0,
                duration=1200.0,
                job_id=index + 1,
                precedence=0,
            ),
        )
    # A big service job arrives into the (by then busy) cell.
    big_service = Job(
        job_type=JobType.SERVICE,
        submit_time=120.0,
        num_tasks=32,
        cpu_per_task=2.0,
        mem_per_task=4.0,
        duration=1200.0,
        job_id=51,
        precedence=10,
    )
    sim.at(120.0, service.submit, big_service)

    sim.run(until=1800.0)

    print("batch scheduler (quota: 40 cores, 30 jobs):")
    print(f"  admitted {batch.jobs_admitted}, rejected {batch.jobs_rejected}")
    print(
        f"  holding {batch.current_usage()[0]:.1f} cores "
        "(never exceeds the quota)"
    )
    print()
    print("service scheduler (precedence 10, may preempt):")
    print(f"  big job fully scheduled: {big_service.is_fully_scheduled}")
    print(
        f"  tasks preempted from batch: "
        f"{metrics.schedulers['service'].preemptions_caused}"
    )
    print()
    print(f"post-facto monitor ({monitor.samples} audits):")
    for violation in monitor.violations[:3]:
        print(
            f"  t={violation.time:6.0f}s {violation.scheduler} held "
            f"{violation.used_cpu:.1f} cores (limit {violation.limit_cpu})"
        )
    if len(monitor.violations) > 3:
        print(f"  ... and {len(monitor.violations) - 3} more")
    if not monitor.violations:
        print("  no violations recorded")


if __name__ == "__main__":
    main()
