"""Tests for the MapReduce experiment driver (Figures 15/16 machinery)."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.experiments.common import LightweightConfig, LightweightSimulation
from repro.experiments.mapreduce import (
    BUSY_CLUSTER_FILL,
    _mr_fill,
    figure15_points,
    speedup_columns,
)
from repro.experiments.registry import EXPERIMENTS, run
from tests.conftest import tiny_preset

#: One cluster-D point per policy, 30 simulated minutes on a 0.3 cell.
SMALL = dict(clusters=("D",), horizon=1800.0, seed=1, scale=0.3)


def _fig15(policy: str) -> dict:
    (row,) = run(EXPERIMENTS["fig15"], dict(SMALL, policies=(policy,)))
    return row


class TestSpeedupColumns:
    def _columns(self, speedups):
        world = SimpleNamespace(
            schedulers=[SimpleNamespace(name="mapreduce", speedups=speedups)]
        )
        return speedup_columns(world, None)

    def test_fraction_accelerated(self):
        columns = self._columns([0.5, 1.0, 2.0, 3.0])
        assert columns["frac_accelerated"] == pytest.approx(0.5)

    def test_fraction_empty_is_nan(self):
        columns = self._columns([])
        assert columns["jobs"] == 0 and math.isnan(columns["frac_accelerated"])

    def test_percentiles(self):
        assert self._columns([1.0, 2.0, 3.0, 4.0, 5.0])["speedup_p50"] == 3.0


class TestFillPolicy:
    def test_busy_clusters_raised_to_cap_neighborhood(self):
        assert _mr_fill("A") == BUSY_CLUSTER_FILL
        assert _mr_fill("C") == BUSY_CLUSTER_FILL

    def test_d_keeps_preset_fill(self):
        assert _mr_fill("D") is None
        assert _mr_fill("Dx0.3") is None  # scaled names too


def _mr_world(figure_points, **params):
    """Build and run the world of a figure's one point, to read the
    MapReduce scheduler's raw speedups and the utilization series."""
    ((config, _),) = figure_points(**params)
    world = LightweightSimulation(config)
    result = world.run()
    (scheduler,) = (s for s in world.schedulers if s.name == "mapreduce")
    return np.asarray(scheduler.speedups), result


def _fig15_world(policy: str):
    return _mr_world(figure15_points, policies=(policy,), **SMALL)


class TestRunExperiment:
    def test_normal_policy_never_accelerates(self):
        row = _fig15("normal")
        assert row["jobs"] > 0
        assert row["frac_accelerated"] == 0.0
        speedups, _ = _fig15_world("normal")
        assert len(speedups) == row["jobs"]
        assert (speedups <= 1.0 + 1e-9).all()

    def test_max_parallelism_beats_normal(self):
        normal, _ = _fig15_world("normal")
        accelerated, _ = _fig15_world("max-parallelism")
        assert accelerated.mean() > normal.mean()
        assert (
            _fig15("max-parallelism")["speedup_p50"] > _fig15("normal")["speedup_p50"]
        )

    def test_worker_counts_scale_with_cell(self):
        """A 0.3-scale cluster D must not see 1,000-worker grants."""
        speedups, result = _fig15_world("max-parallelism")
        assert len(speedups) > 0
        # Sanity via utilization: the cell is not swamped by MR grants.
        cpu = [u for _, u, _ in result.utilization_series]
        assert max(cpu) <= 1.0
        rows = run(
            EXPERIMENTS["fig16"], dict(cluster="D", horizon=1800.0, seed=1, scale=0.3)
        )
        row = {row["policy"]: row for row in rows}["max-parallelism"]
        assert row["samples"] == len(cpu)
        assert row["cpu_util_mean"] <= 1.0

    def test_timeline_samples_the_mapreduce_scheduler(self):
        """The extension scheduler is registered on the world, so the
        experiment's subject has a ``timeline.sched`` series."""
        recorder = obs.TraceRecorder()
        run(
            EXPERIMENTS["fig15"],
            dict(SMALL, policies=("max-parallelism",), timeline_interval=600.0),
            recorder=recorder,
        )
        sampled = [
            record["sched"]
            for record in recorder.records
            if record["name"] == "timeline.sched"
        ]
        assert sampled.count("mapreduce") == 3
        assert set(sampled) == {"omega-batch", "omega-service", "mapreduce"}

    def test_invariant_gate_runs_after_the_run(self, monkeypatch):
        checked = []
        check = LightweightSimulation.check_invariants

        def counting(world):
            checked.append(world.sim.now)
            return check(world)

        monkeypatch.setattr(LightweightSimulation, "check_invariants", counting)
        _fig15("normal")
        assert checked == [1800.0]

    def test_unknown_policy_is_refused_at_build(self):
        config = LightweightConfig(preset=tiny_preset(), mapreduce_policy="greedy")
        with pytest.raises(ValueError, match="unknown MapReduce policy 'greedy'"):
            LightweightSimulation(config).build()
