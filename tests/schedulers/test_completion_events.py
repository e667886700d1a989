"""One completion event per commit releases exactly what one event per
claim released.

``QueueScheduler._start_tasks`` used to push one event per claim, all at
one ``end_time`` with consecutive sequence numbers. :class:`PerClaimCompletions` restores
that; every world below runs both ways and must make the same sequence
of releases (``CellState.release`` calls and ``release_batch`` rows)
and end in the same state and result row.
"""

import numpy as np
import pytest

from repro.core.cellstate import CellState
from repro.core.transaction import CommitMode, ConflictMode
from repro.experiments.common import LightweightConfig, LightweightSimulation
from repro.experiments.sweeps import result_row
from repro.faults import FaultConfig, chaos
from repro.invariants import TOLERANCE
from repro.schedulers.base import QueueScheduler
from tests.conftest import tiny_preset


class PerClaimCompletions:
    """The per-claim pushes this repository used to make, as a mix-in."""

    def _start_tasks(self, state, job, plan):
        end_time = self.sim.now + job.duration
        for claim in plan:
            self.sim.at(
                end_time, state.release, claim.machine, plan.cpu, plan.mem, claim.count
            )


@pytest.fixture
def release_log(monkeypatch):
    """Every ``CellState.release``, and every row of a
    ``CellState.release_batch``, as ``(now, machine, cpu, mem, count)``;
    the test sets ``log.sim`` once it has a simulator."""

    class Log(list):
        sim = None

    log = Log()
    release = CellState.release
    release_batch = CellState.release_batch

    def logged(self, machine, cpu, mem, count=1):
        log.append((log.sim.now, int(machine), cpu, mem, count))
        return release(self, machine, cpu, mem, count)

    def logged_batch(self, plan):
        for claim in plan:
            log.append((log.sim.now, claim.machine, plan.cpu, plan.mem, claim.count))
        return release_batch(self, plan)

    monkeypatch.setattr(CellState, "release", logged)
    monkeypatch.setattr(CellState, "release_batch", logged_batch)
    return log


def _per_claim(monkeypatch):
    monkeypatch.setattr(
        QueueScheduler, "_start_tasks", PerClaimCompletions._start_tasks
    )


def _run_world(config, log):
    world = LightweightSimulation(config)
    log.sim = world.sim
    result = world.run()
    world.check_invariants()
    return {
        "releases": list(log),
        "events": result.events_processed,
        "free_cpu": [state.free_cpu.copy() for state in world.states],
        "free_mem": [state.free_mem.copy() for state in world.states],
        "seq": [state.seq.copy() for state in world.states],
        "row": result_row(result),
    }


def _base(**overrides) -> LightweightConfig:
    return LightweightConfig(
        **{"preset": tiny_preset(batch_rate=1.0), "horizon": 900.0, "seed": 3, **overrides}
    )


CONFIGS = {
    "omega-fine-incremental": _base(
        conflict_mode=ConflictMode.FINE, commit_mode=CommitMode.INCREMENTAL
    ),
    "omega-coarse-gang-4-batch": _base(
        conflict_mode=ConflictMode.COARSE,
        commit_mode=CommitMode.ALL_OR_NOTHING,
        num_batch_schedulers=4,
        batch_rate_factor=4.0,
    ),
    "monolithic": _base(architecture="monolithic-single"),
    "partitioned": _base(architecture="partitioned"),
    "omega-faulted": _base(
        num_batch_schedulers=2,
        fault_config=FaultConfig(machine_mtbf=4000.0, crash_mtbf=200.0),
    ),
}


def _both_ways(monkeypatch, release_log, config):
    per_commit = _run_world(config, release_log)
    release_log.clear()
    with monkeypatch.context() as patch:
        _per_claim(patch)
        per_claim = _run_world(config, release_log)
    return per_commit, per_claim


def _assert_identical(per_commit, per_claim):
    assert len(per_commit["releases"]) > 50
    assert per_commit["releases"] == per_claim["releases"]
    for field in ("free_cpu", "free_mem", "seq", "row"):
        np.testing.assert_equal(per_commit[field], per_claim[field])
    # ...and it is cheaper: some commit spanned several machines.
    assert per_commit["events"] < per_claim["events"]


@pytest.mark.parametrize("name", CONFIGS)
def test_release_sequence_is_identical_per_commit_and_per_claim(
    monkeypatch, release_log, name
):
    monkeypatch.setattr(chaos, "MACHINE_REPAIR_TIME", 120.0)
    _assert_identical(*_both_ways(monkeypatch, release_log, CONFIGS[name]))


def test_every_claim_is_released_exactly_once_at_quiescence(monkeypatch, release_log):
    """Conservation (ROADMAP 6(a), test form): start empty, stop arrivals
    at the horizon, drain the queue — a leaked or doubled release leaves a
    machine short of, or over, its capacity."""
    started = []
    claim = CellState.claim
    claim_batch = CellState.claim_batch

    def counted(self, machine, cpu, mem, count=1):
        claim(self, machine, cpu, mem, count)
        started.append(count)

    def counted_batch(self, plan):
        claim_batch(self, plan)
        started.extend(plan.counts)

    monkeypatch.setattr(CellState, "claim", counted)
    monkeypatch.setattr(CellState, "claim_batch", counted_batch)
    world = LightweightSimulation(
        _base(num_batch_schedulers=4, batch_rate_factor=4.0, initial_utilization=0.0)
    )
    release_log.sim = world.sim
    result = world.run()
    assert world.sim.pending() > 0  # tasks still running at the horizon
    world.sim.run()
    world.check_invariants()

    assert result.jobs_scheduled > 500
    assert sum(started) == sum(entry[-1] for entry in release_log) > 0
    (state,) = world.states
    np.testing.assert_allclose(state.free_cpu, state.cell.cpu_capacity, rtol=0, atol=TOLERANCE)
    np.testing.assert_allclose(state.free_mem, state.cell.mem_capacity, rtol=0, atol=TOLERANCE)
    assert state.used_cpu == pytest.approx(0.0, abs=TOLERANCE)
    assert state.used_mem == pytest.approx(0.0, abs=TOLERANCE)
