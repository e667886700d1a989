"""Tracing off must never reach the recorder.

Every instrumented call site is written ``if rec.enabled: rec.event(...)``.
A recorder that says it is disabled and raises when called anyway makes
a forgotten guard fail exactly, where a timed floor could only hope to.
Each run gets it as its own recorder, ``RunContext(STRICT)``.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.core.transaction import CommitMode, ConflictMode
from repro.experiments.common import (
    ARCHITECTURES,
    LightweightConfig,
    run_lightweight,
)
from repro.experiments.federation import build_federation, federation_points
from repro.hifi import HighFidelityConfig, synthesize_trace
from repro.hifi.replay import HighFidelitySimulation
from repro.recovery.runner import execute_map
from repro.recovery.supervisor import SupervisorPolicy
from repro.world import RunContext
from tests.conftest import tiny_preset


class StrictDisabledRecorder(obs.NullRecorder):
    def _unguarded(self, name, **fields):
        raise AssertionError(f"recorder reached for {name!r} with tracing off")

    event = replay = _unguarded


STRICT = StrictDisabledRecorder()


def _config(architecture: str) -> LightweightConfig:
    return LightweightConfig(
        preset=tiny_preset(),
        architecture=architecture,
        horizon=600.0,
        seed=1,
        num_batch_schedulers=2,
        batch_rate_factor=4.0,
        conflict_mode=ConflictMode.COARSE,
        commit_mode=CommitMode.ALL_OR_NOTHING,
    )


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_lightweight_world(architecture):
    result = run_lightweight(_config(architecture), RunContext(STRICT))
    assert result.jobs_scheduled > 0
    if architecture == "omega":
        # The conflict and retry call sites were on the path.
        assert result.conflict_fraction("batch") > 0


def test_faulted_federation():
    config = federation_points(
        cells=(2,),
        staleness_values=(60.0,),
        intensities=(10.0,),
        scale=0.05,
        horizon=1800.0,
        seed=5,
    )[0][0]
    result = build_federation(config, RunContext(STRICT)).run()
    # Every cell-fault class and the failover paths were on the path.
    assert result.blackouts and result.partitions and result.flaps
    assert result.jobs_rerouted and result.jobs_migrated


def test_hifi_replay_with_failures():
    trace = synthesize_trace(tiny_preset(num_machines=60), horizon=1800.0, seed=5)
    result = HighFidelitySimulation(
        HighFidelityConfig(
            trace=trace, seed=0, machine_mtbf=2 * 3600.0, repair_time=300.0
        ),
        RunContext(STRICT),
    ).run()
    assert result.jobs_scheduled > 0


def _crash_first_worker(point, recorder):
    """A point whose first worker dies; with a marker, it then runs."""
    architecture, marker = point
    if marker is not None and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return run_lightweight(_config(architecture), RunContext(recorder)).jobs_scheduled


def test_supervised_sweep(tmp_path):
    """``--jobs 2``: one worker crashes, the pool degrades to serial and
    both points run in this process — each supervisor event site, and
    the inline points, on the strict recorder."""
    points = [("omega", str(tmp_path / "crashed")), ("mesos", None)]
    policy = SupervisorPolicy(backoff_base=0.0, degrade_after=1)
    scheduled = execute_map(
        _crash_first_worker, points, jobs=2, policy=policy, recorder=STRICT
    )
    assert os.path.exists(tmp_path / "crashed") and all(scheduled)
