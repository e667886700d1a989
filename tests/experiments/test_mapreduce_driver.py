"""Tests for the MapReduce experiment driver (Figures 15/16 machinery)."""

import numpy as np
import pytest

from repro import obs
from repro.experiments.common import LightweightSimulation
from repro.experiments.mapreduce import (
    BUSY_CLUSTER_FILL,
    MapReduceRun,
    _mr_fill,
    run_mapreduce_experiment,
)
from repro.mapreduce import MaxParallelismPolicy, NoAccelerationPolicy


class TestMapReduceRun:
    def _run(self, speedups):
        return MapReduceRun(
            cluster="D",
            policy="max-parallelism",
            speedups=np.asarray(speedups, dtype=float),
            utilization_series=[],
        )

    def test_fraction_accelerated(self):
        run = self._run([0.5, 1.0, 2.0, 3.0])
        assert run.fraction_accelerated == pytest.approx(0.5)

    def test_fraction_empty_is_nan(self):
        import math

        assert math.isnan(self._run([]).fraction_accelerated)

    def test_percentiles(self):
        run = self._run([1.0, 2.0, 3.0, 4.0, 5.0])
        assert run.percentile(50) == 3.0

    def test_cdf(self):
        xs, ps = self._run([3.0, 1.0, 2.0]).cdf()
        assert list(xs) == [1.0, 2.0, 3.0]
        assert ps[-1] == pytest.approx(1.0)


class TestFillPolicy:
    def test_busy_clusters_raised_to_cap_neighborhood(self):
        assert _mr_fill("A") == BUSY_CLUSTER_FILL
        assert _mr_fill("C") == BUSY_CLUSTER_FILL

    def test_d_keeps_preset_fill(self):
        assert _mr_fill("D") is None
        assert _mr_fill("Dx0.3") is None  # scaled names too


class TestRunExperiment:
    def test_normal_policy_never_accelerates(self):
        run = run_mapreduce_experiment(
            "D", NoAccelerationPolicy(), horizon=1800.0, seed=1, scale=0.3
        )
        assert len(run.speedups) > 0
        assert (run.speedups <= 1.0 + 1e-9).all()

    def test_max_parallelism_beats_normal(self):
        normal = run_mapreduce_experiment(
            "D", NoAccelerationPolicy(), horizon=1800.0, seed=1, scale=0.3
        )
        accelerated = run_mapreduce_experiment(
            "D", MaxParallelismPolicy(), horizon=1800.0, seed=1, scale=0.3
        )
        assert accelerated.speedups.mean() > normal.speedups.mean()

    def test_worker_counts_scale_with_cell(self):
        """A 0.3-scale cluster D must not see 1,000-worker grants."""
        run = run_mapreduce_experiment(
            "D", MaxParallelismPolicy(), horizon=1800.0, seed=1, scale=0.3
        )
        assert len(run.speedups) > 0
        # Sanity via utilization: the cell is not swamped by MR grants.
        cpu = [u for _, u, _ in run.utilization_series]
        assert max(cpu) <= 1.0

    def test_timeline_samples_the_mapreduce_scheduler(self):
        """The extension scheduler is registered on the world, so the
        experiment's subject has a ``timeline.sched`` series."""
        recorder = obs.TraceRecorder(keep_records=True)
        obs.set_recorder(recorder)
        try:
            run_mapreduce_experiment(
                "D",
                MaxParallelismPolicy(),
                horizon=1800.0,
                seed=1,
                scale=0.3,
                timeline_interval=600.0,
            )
        finally:
            obs.reset_recorder()
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
        run_mapreduce_experiment(
            "D", NoAccelerationPolicy(), horizon=1800.0, seed=1, scale=0.3
        )
        assert checked == [1800.0]
