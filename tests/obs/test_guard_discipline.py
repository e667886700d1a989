"""Tracing off must never reach the recorder.

Every instrumented call site is written ``if rec.enabled: rec.event(...)``.
A recorder that says it is disabled and raises when called anyway makes
a forgotten guard fail exactly, where a timed floor could only hope to.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.transaction import CommitMode, ConflictMode
from repro.experiments.common import (
    ARCHITECTURES,
    LightweightConfig,
    run_lightweight,
)
from repro.experiments.federation import build_federation, federation_points
from repro.hifi import HighFidelityConfig, run_hifi, synthesize_trace
from tests.conftest import tiny_preset


class StrictDisabledRecorder(obs.NullRecorder):
    def _unguarded(self, name, **fields):
        raise AssertionError(f"recorder reached for {name!r} with tracing off")

    event = _unguarded


@pytest.fixture
def strict_recorder():
    previous = obs.get_recorder()
    obs.set_recorder(StrictDisabledRecorder())
    try:
        yield
    finally:
        obs.set_recorder(previous)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_lightweight_world(strict_recorder, architecture):
    result = run_lightweight(
        LightweightConfig(
            preset=tiny_preset(),
            architecture=architecture,
            horizon=600.0,
            seed=1,
            num_batch_schedulers=2,
            batch_rate_factor=4.0,
            conflict_mode=ConflictMode.COARSE,
            commit_mode=CommitMode.ALL_OR_NOTHING,
        )
    )
    assert result.jobs_scheduled > 0
    if architecture == "omega":
        # The conflict and retry call sites were on the path.
        assert result.conflict_fraction("batch") > 0


def test_faulted_federation(strict_recorder):
    config = federation_points(
        cells=(2,),
        staleness_values=(60.0,),
        intensities=(10.0,),
        scale=0.05,
        horizon=1800.0,
        seed=5,
    )[0][0]
    result = build_federation(config).run()
    # Every cell-fault class and the failover paths were on the path.
    assert result.blackouts and result.partitions and result.flaps
    assert result.jobs_rerouted and result.jobs_migrated


def test_hifi_replay_with_failures(strict_recorder):
    trace = synthesize_trace(tiny_preset(num_machines=60), horizon=1800.0, seed=5)
    result = run_hifi(
        HighFidelityConfig(
            trace=trace, seed=0, machine_mtbf=2 * 3600.0, repair_time=300.0
        )
    )
    assert result.jobs_scheduled > 0
