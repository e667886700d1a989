#!/usr/bin/env python3
"""Quickstart: one Omega shared-state simulation on cluster B.

Runs two hours of simulated cluster operation with the default
batch + service scheduler pair and prints the paper's core metrics
(job wait time, scheduler busyness, conflict fraction) — plus the
observability layer in action: a structured trace of every transaction
attempt and the event loop's top-5 hottest callbacks.

Usage::

    python examples/quickstart.py
"""

from repro import CLUSTER_B, JobType, LightweightConfig, obs
from repro.experiments.common import LightweightSimulation
from repro.obs.profile import CallbackProfiler
from repro.obs.summary import TraceSummary
from repro.world import RunContext


def main() -> None:
    config = LightweightConfig(
        preset=CLUSTER_B.scaled(0.25),  # quarter-size cell for a fast demo
        architecture="omega",
        horizon=2 * 3600.0,  # two simulated hours
        seed=42,
    )

    # Observability: record a structured trace of every scheduling
    # decision (one sched.attempt record per attempt, kept in memory
    # here; pass path=... to stream JSONL) and profile where the event
    # loop's wall time goes.
    recorder = obs.TraceRecorder()
    simulation = LightweightSimulation(config, RunContext(recorder=recorder))
    profiler = CallbackProfiler()
    simulation.sim.profiler = profiler
    result = simulation.run()

    print(f"cluster: {config.preset.name} ({config.preset.num_machines} machines)")
    print(f"simulated horizon: {config.horizon / 3600:.1f} h")
    print(f"jobs submitted:  {result.jobs_submitted}")
    print(f"jobs scheduled:  {result.jobs_scheduled}")
    print(f"jobs abandoned:  {result.jobs_abandoned}")
    print()
    print("            wait time   busyness   conflict fraction")
    for role, job_type in (("batch", JobType.BATCH), ("service", JobType.SERVICE)):
        print(
            f"  {role:8s}  {result.mean_wait(job_type):8.3f} s"
            f"  {result.busyness(role):8.3f}"
            f"  {result.conflict_fraction(role):12.4f}"
        )
    print()
    print(f"final CPU utilization: {result.final_cpu_utilization:.1%}")
    print(f"events processed:      {result.events_processed}")
    stats = result.sim_stats
    print(f"peak event queue:      {stats['peak_queue_depth']}")
    print(f"wall time:             {stats['wall_seconds']:.3f} s")

    # What the trace saw: per-scheduler conflict/busyness rollup, which
    # agrees with the MetricsCollector aggregates above by construction.
    summary = TraceSummary.from_records(recorder.records)
    print()
    print(f"trace: {recorder.records_emitted} records")
    for name in summary.scheduler_names():
        entry = summary.schedulers[name]
        print(
            f"  {name:16s} {entry.txn_attempts:5d} txns, "
            f"{entry.txn_conflicted} conflicted, busy {entry.busy_seconds:.1f} s"
            f" ({entry.busy_conflict_seconds:.1f} s conflict rework)"
        )

    print()
    print("top-5 hottest event-loop callbacks:")
    print(profiler.report(n=5))


if __name__ == "__main__":
    main()
