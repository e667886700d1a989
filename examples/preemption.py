#!/usr/bin/env python3
"""Cluster-wide behaviour over shared state: precedence preemption
(paper section 3.4).

Omega has no central policy engine. Instead, schedulers agree on a
*precedence* scale, and high-precedence work may preempt
lower-precedence tasks ("free-for-all, priority preemption", Table 1).
The paper's other section 3.4 mechanisms, per-scheduler quotas and
post-facto auditing, are described there but evaluated nowhere, and
this reproduction does not implement them.

This example runs a batch and a preempting service scheduler on one
shared cell.

Usage::

    python examples/preemption.py
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
from repro.core import AllocationLedger, OmegaScheduler, PreemptingOmegaScheduler


def main() -> None:
    sim = Simulator()
    metrics = MetricsCollector(period=600.0)
    state = CellState(Cell.homogeneous(20, cpu_per_machine=4.0, mem_per_machine=16.0))
    ledger = AllocationLedger(state, sim)

    # A batch scheduler whose tasks sit at the lowest precedence.
    batch = OmegaScheduler(
        "batch",
        sim,
        metrics,
        state,
        np.random.default_rng(0),
        DecisionTimeModel(),
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
    # Flood the batch scheduler: 50 jobs of 2 cores against 80 cores.
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

    print("service scheduler (precedence 10, may preempt):")
    print(f"  big job fully scheduled: {big_service.is_fully_scheduled}")
    print(
        f"  tasks preempted from batch: "
        f"{metrics.schedulers['service'].preemptions_caused}"
    )
    print()
    print("batch scheduler (precedence 0):")
    print(
        f"  tasks lost to preemption and requeued: "
        f"{metrics.schedulers['batch'].tasks_lost_to_preemption}"
    )


if __name__ == "__main__":
    main()
