#!/usr/bin/env python3
"""High-fidelity trace replay: constraints, scoring placement, conflicts.

Synthesizes a stand-in production trace for cluster C (heterogeneous
machines, placement constraints) and replays it under three
service-scheduler decision times to show interference appearing as
decisions slow down — the Figure 12 mechanism. The replay takes any
in-memory ``Trace``; a real trace would enter through a converter into
one.

Usage::

    python examples/trace_replay.py
"""

from repro import CLUSTER_C, DecisionTimeModel, HighFidelityConfig, JobType, run_hifi
from repro.hifi import synthesize_trace


def main() -> None:
    preset = CLUSTER_C.scaled(0.2)
    # Twelve hours, so the conflicts column averages over a few dozen
    # service jobs rather than one or two.
    trace = synthesize_trace(preset, horizon=12 * 3600.0, seed=13)
    jobs = len(trace.jobs)
    service = sum(1 for job in trace.jobs if job.job_type is JobType.SERVICE)
    picky = sum(1 for job in trace.jobs if job.constraints)
    print(f"synthesized trace: {jobs} jobs ({service} service), {len(trace.machines)} machines")
    print(f"{picky} jobs ({picky / jobs:.0%}) carry constraints\n")

    print("t_job(service)   conflicts/job (svc)   busyness (svc)   wait p90 (svc)")
    for t_job in (0.1, 10.0, 60.0):
        result = run_hifi(
            HighFidelityConfig(
                trace=trace,
                seed=0,
                service_model=DecisionTimeModel(t_job=t_job),
            )
        )
        print(
            f"{t_job:10.1f} s   {result.conflict_fraction('service'):12.3f}"
            f"   {result.busyness('service'):14.4f}"
            f"   {result.p90_wait(JobType.SERVICE):10.2f} s"
        )
    print(
        "\nConflicts grow with decision time: the longer a transaction, "
        "the more the cell changes under it (paper section 5.1)."
    )


if __name__ == "__main__":
    main()
