#!/usr/bin/env python3
"""Paper section 4 in miniature: all five scheduler architectures on an
identical workload, with a slow service scheduler.

Demonstrates the headline qualitative results:

* the single-path monolithic scheduler saturates and delays everything
  (head-of-line blocking);
* the multi-path monolithic scheduler rescues batch jobs partially;
* the statically partitioned scheduler avoids interference but wastes
  capacity to fragmentation;
* the Mesos-style two-level scheduler starves the batch framework while
  the service framework holds offers;
* Omega's shared state decouples the schedulers entirely.

Usage::

    python examples/compare_architectures.py [t_job_service_seconds]
"""

import sys

from repro import CLUSTER_A, DecisionTimeModel, JobType, LightweightConfig, obs, run_lightweight
from repro.experiments.common import ARCHITECTURES, format_table
from repro.obs.summary import TraceSummary
from repro.world import RunContext


def main() -> None:
    t_job_service = float(sys.argv[1]) if len(sys.argv) > 1 else 30.0
    preset = CLUSTER_A.scaled(0.2)
    # One trace recorder across all five architectures: the per-run
    # `run.start` markers and scheduler names keep the records apart.
    recorder = obs.TraceRecorder()
    rows = []
    for architecture in ARCHITECTURES:
        result = run_lightweight(
            LightweightConfig(
                preset=preset,
                architecture=architecture,
                horizon=2 * 3600.0,
                seed=7,
                service_model=DecisionTimeModel(t_job=t_job_service),
            ),
            RunContext(recorder=recorder),
        )
        rows.append(
            {
                "architecture": architecture,
                "batch_wait_s": result.mean_wait(JobType.BATCH),
                "service_wait_s": result.mean_wait(JobType.SERVICE),
                "batch_busyness": result.busyness("batch"),
                "conflicts/job": result.conflict_fraction("batch"),
                "abandoned": result.jobs_abandoned,
                "unscheduled": f"{result.unscheduled_fraction:.1%}",
            }
        )
    print(f"identical workload, t_job(service) = {t_job_service:g} s\n")
    print(format_table(rows))
    print(
        "\nNote how the shared-state row keeps batch wait times low and "
        "abandons nothing even with slow service decisions."
    )

    summary = TraceSummary.from_records(recorder.records)
    print(
        f"\ntrace: {recorder.records_emitted} records across "
        f"{summary.runs} runs; per-scheduler busy time:"
    )
    for name in summary.scheduler_names():
        entry = summary.schedulers[name]
        print(
            f"  {name:22s} busy {entry.busy_seconds:8.1f} s, "
            f"{entry.txn_conflicted} conflicted txns"
        )


if __name__ == "__main__":
    main()
