"""Tests for FaultConfig and the ChaosEngine."""

import dataclasses

import numpy as np
import pytest

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.core.scheduler import OmegaScheduler
from repro.faults import ChaosEngine, FaultConfig, chaos
from repro.metrics import MetricsCollector
from repro.schedulers.base import DecisionTimeModel
from repro.sim import RandomStreams, Simulator
from tests.conftest import make_job


class TestFaultConfig:
    def test_default_injects_nothing(self):
        config = FaultConfig()
        assert not config.enabled
        assert not config.wants_commit_faults

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"machine_mtbf": 0.0},
            {"machine_mtbf": -10.0},
            {"machine_mtbf": float("nan")},
            {"crash_mtbf": -1.0},
            {"crash_mtbf": float("inf")},
            {"commit_delay_prob": -0.1},
            {"commit_delay_prob": 1.5},
            {"commit_drop_prob": 2.0},
            {"commit_drop_prob": float("nan")},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            FaultConfig(**kwargs)

    def test_any_single_fault_enables(self):
        assert FaultConfig(machine_mtbf=100.0).enabled
        assert FaultConfig(crash_mtbf=100.0).enabled
        assert FaultConfig(commit_delay_prob=0.1).enabled
        assert FaultConfig(commit_drop_prob=0.1).enabled
        assert FaultConfig(commit_drop_prob=0.1).wants_commit_faults

    def test_scaled_zero_is_disabled(self):
        baseline = FaultConfig(machine_mtbf=100.0, commit_drop_prob=0.5)
        assert baseline.scaled(0.0) == FaultConfig()
        assert not baseline.scaled(0.0).enabled

    def test_scaled_one_is_identity(self):
        baseline = FaultConfig(
            machine_mtbf=100.0, crash_mtbf=50.0, commit_delay_prob=0.2
        )
        assert baseline.scaled(1.0) == baseline

    def test_scaled_divides_mtbf_and_multiplies_probs(self):
        baseline = FaultConfig(
            machine_mtbf=100.0,
            crash_mtbf=40.0,
            commit_delay_prob=0.2,
            commit_drop_prob=0.3,
        )
        scaled = baseline.scaled(4.0)
        assert scaled.machine_mtbf == pytest.approx(25.0)
        assert scaled.crash_mtbf == pytest.approx(10.0)
        assert scaled.commit_delay_prob == pytest.approx(0.8)
        assert scaled.commit_drop_prob == 1.0  # clamped

    def test_scaled_negative_rejected(self):
        with pytest.raises(ValueError, match="intensity"):
            FaultConfig().scaled(-1.0)

    def test_config_is_frozen_and_picklable(self):
        import pickle

        config = FaultConfig(machine_mtbf=100.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.machine_mtbf = 5.0
        assert pickle.loads(pickle.dumps(config)) == config


def build_engine(config, seed=0, num_schedulers=1):
    """One cell, ``num_schedulers`` Omega schedulers, a chaos engine."""
    sim = Simulator()
    metrics = MetricsCollector(period=100.0)
    state = CellState(Cell.homogeneous(8, cpu_per_machine=4.0, mem_per_machine=16.0))
    streams = RandomStreams(seed)
    schedulers = [
        OmegaScheduler(
            f"omega-{i}",
            sim,
            metrics,
            state,
            streams.stream(f"placement.{i}"),
            DecisionTimeModel(t_job=0.1, t_task=0.01),
        )
        for i in range(num_schedulers)
    ]
    engine = ChaosEngine(sim, streams.fork("chaos"), config, metrics)
    return sim, metrics, state, schedulers, engine


class TestChaosEngineMachineFaults:
    def test_machine_failures_injected_and_counted(self, monkeypatch):
        monkeypatch.setattr(chaos, "MACHINE_REPAIR_TIME", 60.0)
        config = FaultConfig(machine_mtbf=600.0)
        sim, metrics, state, schedulers, engine = build_engine(config)
        engine.install([state], schedulers, horizon=3600.0)
        sim.run()
        assert metrics.machine_failures > 5
        assert engine.machines_down == 0  # every repair ran

    def test_disabled_classes_install_nothing(self):
        config = FaultConfig(machine_mtbf=600.0)  # machine faults only
        sim, metrics, state, schedulers, engine = build_engine(config)
        engine.install([state], schedulers, horizon=600.0)
        assert schedulers[0].chaos is None  # no commit faults configured
        sim.run()
        assert metrics.total("crashes") == 0


class TestChaosEngineCrashes:
    def test_schedulers_crash_and_restart(self, monkeypatch):
        monkeypatch.setattr(chaos, "CRASH_RESTART_TIME", 30.0)
        config = FaultConfig(crash_mtbf=300.0)
        sim, metrics, state, schedulers, engine = build_engine(config)
        engine.install([state], schedulers, horizon=3600.0)
        sim.run()
        assert metrics.total("crashes") > 2
        # Every crash within the horizon restarts 30 s later, so by the
        # time the event queue drains the scheduler is back up.
        assert not schedulers[0].is_down

    def test_crashed_scheduler_loses_inflight_job_then_recovers(self):
        # horizon=0 keeps the Poisson crash process from ever firing, so
        # the test drives crash()/restart() by hand at a known instant.
        config = FaultConfig(crash_mtbf=1e9)
        sim, metrics, state, schedulers, engine = build_engine(config)
        engine.install([state], schedulers, horizon=0.0)
        scheduler = schedulers[0]
        job = make_job(num_tasks=4)
        scheduler.submit(job)
        sim.run(until=0.05)  # mid-think (decision time is 0.14 s)
        assert scheduler.is_busy
        lost = scheduler.crash()
        assert lost is job
        assert scheduler.is_down and not scheduler.is_busy
        assert scheduler.queue_depth == 1  # requeued at the front
        scheduler.restart()
        sim.run()
        assert job.is_fully_scheduled


class TestCommitFaults:
    def test_drop_drawn_before_delay(self):
        config = FaultConfig(commit_drop_prob=1.0, commit_delay_prob=1.0)
        sim, metrics, state, schedulers, engine = build_engine(config)
        engine.install([state], schedulers)
        delay, drop = engine.commit_fault(schedulers[0], make_job())
        assert drop and delay == 0.0

    def test_delay_is_positive_and_counted(self):
        config = FaultConfig(commit_delay_prob=1.0)
        sim, metrics, state, schedulers, engine = build_engine(config)
        engine.install([state], schedulers)
        delay, drop = engine.commit_fault(schedulers[0], make_job())
        assert not drop and delay > 0.0

    def test_install_hooks_schedulers(self):
        config = FaultConfig(commit_drop_prob=0.5)
        sim, metrics, state, schedulers, engine = build_engine(
            config, num_schedulers=2
        )
        engine.install([state], schedulers)
        assert all(s.chaos is engine for s in schedulers)

    def test_dropped_commit_counts_as_conflict(self):
        config = FaultConfig(commit_drop_prob=1.0)
        sim, metrics, state, schedulers, engine = build_engine(config)
        engine.install([state], schedulers)
        scheduler = schedulers[0]
        job = make_job(num_tasks=2)
        scheduler.submit(job)
        sim.run(until=1.0)
        # Every commit drops, so the job only conflicts and never lands.
        assert not job.is_fully_scheduled
        assert job.conflicts > 0
        assert metrics.total("commits_dropped") > 0


class TestDeterminism:
    def test_same_seed_same_fault_counters(self, monkeypatch):
        monkeypatch.setattr(chaos, "MACHINE_REPAIR_TIME", 60.0)
        monkeypatch.setattr(chaos, "CRASH_RESTART_TIME", 30.0)

        def counters(seed):
            config = FaultConfig(machine_mtbf=600.0, crash_mtbf=900.0)
            sim, metrics, state, schedulers, engine = build_engine(
                config, seed=seed, num_schedulers=2
            )
            engine.install([state], schedulers, horizon=3600.0)
            sim.run()
            return (metrics.machine_failures, metrics.total("crashes"), sim.now)

        assert counters(11) == counters(11)
        assert counters(11) != counters(12)
