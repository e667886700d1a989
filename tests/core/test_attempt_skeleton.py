"""The one attempt body serves every Omega variant.

``OmegaScheduler.attempt`` used to be written three times; the copies
had drifted (the preempting one ignored ``job.escalated``, the MapReduce
one recorded no skipped transaction). These tests pin what every variant now
inherits.
"""

import numpy as np

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.core.preemption import AllocationLedger
from repro.core.retry import StarvationEscalationPolicy
from repro.core.scheduler import PreemptingOmegaScheduler
from repro.core.transaction import Claim, CommitMode
from repro.mapreduce.model import MapReduceJob, MapReduceProfile
from repro.mapreduce.policies import NoAccelerationPolicy
from repro.mapreduce.scheduler import MapReduceScheduler
from repro.obs.recorder import TraceRecorder
from repro.schedulers.base import DecisionTimeModel
from tests.conftest import make_job

MODEL = DecisionTimeModel(t_job=0.1, t_task=0.0)


def mr_job(workers=2):
    profile = MapReduceProfile(
        maps=20,
        reduces=0,
        map_duration=60.0,
        reduce_duration=60.0,
        workers_configured=workers,
        cpu_per_worker=1.0,
        mem_per_worker=2.0,
    )
    return MapReduceJob.from_profile(profile, submit_time=0.0, job_id=1)


def test_escalated_gang_job_commits_incrementally_when_preempting(sim, metrics):
    state = CellState(Cell.homogeneous(2, cpu_per_machine=4.0, mem_per_machine=16.0))
    ledger = AllocationLedger(state, sim)
    policy = StarvationEscalationPolicy(np.random.default_rng(1), escalate_after=1)
    scheduler = PreemptingOmegaScheduler(
        "gang",
        sim,
        metrics,
        state,
        np.random.default_rng(0),
        MODEL,
        ledger=ledger,
        commit_mode=CommitMode.ALL_OR_NOTHING,
        retry_policy=policy,
    )
    job = make_job(num_tasks=2, cpu=3.0, mem=3.0, duration=100.0)
    job.precedence = 10
    sim.recorder = recorder = TraceRecorder()
    scheduler.submit(job)
    # While the scheduler thinks, an equal-precedence (not preemptible)
    # allocation fills machine 1: the gang commit conflicts and the
    # policy escalates the job.
    sim.at(0.05, ledger.register, Claim(machine=1, cpu=4.0, mem=4.0, count=1), 10, 1000.0)
    sim.run(until=2.0)
    assert job.escalated and job.conflicts == 1
    assert metrics.schedulers["gang"].jobs_escalated == 1
    # Only machine 0 has room; an escalated job takes it instead of
    # skipping every transaction for want of a full gang plan.
    assert job.placed_tasks == 1
    # The preempting commit names the gang's conflicts while tracing.
    first = next(r for r in recorder.records if r["name"] == "sched.attempt")
    assert first["fields"]["conflicts"] == [[1, 1, "capacity"], [0, 1, "capacity"]]


def test_mapreduce_attempt_that_plans_nothing_records_txn_skipped(sim, metrics):
    state = CellState(Cell.homogeneous(2, cpu_per_machine=4.0, mem_per_machine=16.0))
    for machine in range(2):
        state.claim(machine, cpu=4.0, mem=4.0)
    scheduler = MapReduceScheduler(
        "mapreduce",
        sim,
        metrics,
        state,
        np.random.default_rng(0),
        MODEL,
        NoAccelerationPolicy(),
    )
    sim.recorder = recorder = TraceRecorder()
    scheduler.submit(mr_job())
    sim.run(until=0.15)
    (attempt,) = [r for r in recorder.records if r.get("name") == "sched.attempt"]
    assert attempt["fields"]["skip"] == "no_placement"
    assert "claims" not in attempt["fields"]
    assert attempt["sched"] == "mapreduce"
