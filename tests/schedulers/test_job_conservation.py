"""Job conservation (ROADMAP 6(a), test form): every job that enters a
scheduler leaves it scheduled or abandoned.

Each world below stops arrivals at its horizon and is then drained to
quiescence — no event left. What was submitted must equal what was
scheduled plus what was abandoned, every queue must be empty and no scheduler busy or down.
The worlds cover the one service loop and the one attempt body under
every architecture and Omega variant, and under the two faults that
interrupt an attempt: a dropped commit and a crash mid-think.
"""

import pytest

from repro.core.retry import RetryPolicyConfig
from repro.core.transaction import CommitMode, ConflictMode
from repro.experiments.common import LightweightConfig, LightweightSimulation
from repro.faults import FaultConfig, chaos
from repro.mapreduce import MapReduceScheduler, MapReduceWorkload, MaxParallelismPolicy
from repro.obs.recorder import TraceRecorder
from repro.schedulers.base import DecisionTimeModel
from repro.world import RunContext
from tests.conftest import tiny_preset


def _config(**overrides) -> LightweightConfig:
    base = {"preset": tiny_preset(batch_rate=1.0), "horizon": 300.0, "seed": 5}
    return LightweightConfig(**{**base, **overrides})


#: Contended enough that gang commits conflict and policies act.
_CONTENDED = dict(
    conflict_mode=ConflictMode.COARSE,
    commit_mode=CommitMode.ALL_OR_NOTHING,
    num_batch_schedulers=4,
    batch_rate_factor=4.0,
)

CONFIGS = {
    "monolithic": _config(architecture="monolithic-multi"),
    "partitioned": _config(architecture="partitioned"),
    "mesos": _config(architecture="mesos"),
    "omega": _config(),
    "omega-gang-coarse": _config(**_CONTENDED),
    "omega-cooldown": _config(**_CONTENDED, conflict_avoidance_cooldown=5.0),
    "omega-escalate-first": _config(
        **_CONTENDED,
        retry_policy=RetryPolicyConfig(kind="starvation", escalate_after=1),
    ),
    # The starvation policy's backoff: delayed requeues at the back of
    # the queue before escalation.
    "omega-backoff": _config(
        **_CONTENDED,
        retry_policy=RetryPolicyConfig(kind="starvation", escalate_after=3),
    ),
    "omega-preempting": _config(enable_preemption=True, initial_utilization=0.9),
    "omega-commit-drop": _config(
        num_batch_schedulers=2, fault_config=FaultConfig(commit_drop_prob=0.2)
    ),
    "mesos-commit-drop": _config(
        architecture="mesos", fault_config=FaultConfig(commit_drop_prob=0.2)
    ),
    "omega-crash-mid-think": _config(
        num_batch_schedulers=2,
        fault_config=FaultConfig(crash_mtbf=60.0),
    ),
}


def _drain_and_check(world) -> None:
    result = world.run()
    world.sim.run()  # arrivals stopped at the horizon: run what is left
    world.check_invariants()
    metrics = world.metrics
    assert metrics.jobs_submitted > 100
    assert metrics.jobs_submitted == (
        metrics.jobs_scheduled_total + metrics.jobs_abandoned_total
    )
    assert metrics.jobs_scheduled_total >= result.jobs_scheduled > 0
    for scheduler in world.schedulers:
        assert scheduler.queue_depth == 0, scheduler.name
        assert not scheduler.is_busy and not scheduler.is_down, scheduler.name
        assert scheduler.busy_since is None, scheduler.name
    assert world.sim.pending() == 0


@pytest.mark.parametrize("name", CONFIGS)
def test_every_submitted_job_is_scheduled_or_abandoned(name, monkeypatch):
    monkeypatch.setattr(chaos, "CRASH_RESTART_TIME", 10.0)
    recorder = TraceRecorder()
    world = LightweightSimulation(CONFIGS[name], RunContext(recorder))
    _drain_and_check(world)
    faults = CONFIGS[name].fault_config or FaultConfig()
    if faults.commit_drop_prob:
        assert world.metrics.total("commits_dropped") > 0
    if faults.crash_mtbf:
        crashes = [r for r in recorder.records if r.get("name") == "fault.sched_crash"]
        assert any(r["fields"]["lost_job"] is not None for r in crashes)


def test_mapreduce_scheduler_conserves_jobs():
    world = LightweightSimulation(_config()).build()
    mapreduce = MapReduceScheduler(
        "mapreduce",
        world.sim,
        world.metrics,
        world.states[0],
        world.streams.stream("placement.mapreduce"),
        DecisionTimeModel(),
        MaxParallelismPolicy(),
    )
    world.register(mapreduce)
    workload = MapReduceWorkload(
        world.sim,
        rate=0.2,
        rng=world.streams.stream("workload.mapreduce"),
        submit=mapreduce.submit,
        horizon=world.horizon,
        job_ids=world.context.job_ids,
        worker_scale=0.01,
    )
    workload.start()
    _drain_and_check(world)
    assert workload.jobs_generated > 30
