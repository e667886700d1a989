"""Tests for the figure-sweep drivers (small scales, structural checks)."""

import json

import pytest

from repro.experiments import hifi_perf
from repro.experiments.omega import figure8_saturation_points
from repro.experiments.registry import EXPERIMENTS, run
from repro.experiments.sweeps import WAIT_TIME_SLO, saturation_point
from repro.experiments.sweep3d import SCHEMES
from repro.hifi.trace import synthesize_trace
from tests.conftest import tiny_preset

SCALE = 0.05
HOURS = 0.5 * 3600.0


class TestServiceSweep:
    @pytest.fixture(scope="class")
    def rows(self):
        return run(
            EXPERIMENTS["fig5c"],
            dict(
                t_jobs=(0.1, 10.0),
                clusters=("A",),
                horizon=HOURS,
                seed=0,
                scale=SCALE,
            ),
        )

    def test_row_per_point(self, rows):
        assert len(rows) == 2
        assert [row["t_job_service"] for row in rows] == [0.1, 10.0]

    def test_row_schema(self, rows):
        expected = {
            "cluster",
            "t_job_service",
            "wait_batch",
            "wait_service",
            "busy_batch",
            "busy_service",
            "conflict_batch",
            "conflict_service",
            "abandoned",
            "unscheduled_fraction",
            "utilization",
        }
        assert expected <= set(rows[0])

    def test_slo_constant_matches_paper(self):
        assert WAIT_TIME_SLO == 30.0


class TestBatchLoadSweep:
    def test_busyness_grows_with_load(self):
        rows = run(
            EXPERIMENTS["fig8"],
            dict(
                factors=(1.0, 4.0), clusters=("B",), horizon=HOURS, seed=0,
                scale=SCALE,
            ),
        )
        assert rows[1]["busy_batch"] > rows[0]["busy_batch"]

    def test_saturation_point_detection(self):
        rows = [
            {"rate_factor": 1.0, "unscheduled_fraction": 0.0},
            {"rate_factor": 2.0, "unscheduled_fraction": 0.01},
            {"rate_factor": 4.0, "unscheduled_fraction": 0.3},
            {"rate_factor": 8.0, "unscheduled_fraction": 0.6},
        ]
        assert saturation_point(rows) == 4.0

    def test_saturation_point_none_when_all_fine(self):
        rows = [{"rate_factor": 1.0, "unscheduled_fraction": 0.0}]
        assert saturation_point(rows) is None

    def test_figure8_saturation_per_cluster(self):
        rows = [
            {"cluster": "A", "rate_factor": 2.0, "unscheduled_fraction": 0.5},
            {"cluster": "B", "rate_factor": 2.0, "unscheduled_fraction": 0.0},
        ]
        points = figure8_saturation_points(rows)
        assert points == {"A": 2.0, "B": None}

    def test_figure9_rows_cover_counts(self):
        rows = run(
            EXPERIMENTS["fig9"],
            dict(
                factors=(1.0,),
                scheduler_counts=(1, 2),
                horizon=HOURS,
                seed=0,
                scale=SCALE,
            ),
        )
        assert {row["num_batch_schedulers"] for row in rows} == {1, 2}


class TestFigure10:
    def test_five_schemes(self):
        assert len(SCHEMES) == 5
        labels = [label for label, _, _ in SCHEMES]
        assert labels[0] == "monolithic-single"
        assert labels[-1] == "omega-coarse-gang"

    def test_surface_rows(self):
        rows = run(
            EXPERIMENTS["fig10"],
            dict(
                t_jobs=(0.1,),
                t_tasks=(0.005,),
                horizon=HOURS,
                seed=0,
                scale=SCALE,
                schemes=SCHEMES[:2],
            ),
        )
        assert len(rows) == 2
        assert {row["scheme"] for row in rows} == {
            "monolithic-single",
            "monolithic-multi",
        }


class TestHifiDrivers:
    @pytest.fixture(scope="class")
    def trace(self):
        return synthesize_trace(tiny_preset(num_machines=50), horizon=900.0, seed=2)

    def test_figure12_rows(self, trace):
        rows = run(
            EXPERIMENTS["fig12"], dict(trace=trace, t_jobs=(0.1, 10.0), seed=0)
        )
        assert len(rows) == 2
        assert "busy_service_noconflict" in rows[0]
        assert "wait_service_p90" in rows[0]

    def test_figure13_rows_have_per_scheduler_columns(self, trace):
        rows = run(
            EXPERIMENTS["fig13"],
            dict(trace=trace, t_jobs=(0.1,), scheduler_counts=(1, 3), seed=0),
        )
        three = [row for row in rows if row["num_batch_schedulers"] == 3][0]
        assert {"busy_batch_0", "busy_batch_1", "busy_batch_2"} <= set(three)

    def test_figure13_shift_helper(self):
        rows = [
            {"num_batch_schedulers": 1, "t_job_batch": 4.0, "unscheduled_fraction": 0.5},
            {"num_batch_schedulers": 3, "t_job_batch": 4.0, "unscheduled_fraction": 0.0},
            {"num_batch_schedulers": 3, "t_job_batch": 12.0, "unscheduled_fraction": 0.5},
        ]
        shift = hifi_perf.figure13_saturation_shift(rows)
        assert shift["saturation_t_job"] == {1: 4.0, 3: 12.0}
        assert shift["shift"] == pytest.approx(3.0)


class TestMapReduceDrivers:
    def test_figure15_rows(self):
        rows = run(
            EXPERIMENTS["fig15"],
            dict(clusters=("D",), horizon=HOURS, seed=0, scale=0.3),
        )
        assert {row["policy"] for row in rows} == {
            "max-parallelism",
            "relative-job-size",
            "global-cap",
        }
        for row in rows:
            assert row["jobs"] > 0

    def test_figure16_rows(self):
        rows = run(
            EXPERIMENTS["fig16"],
            dict(cluster="D", horizon=HOURS, seed=0, scale=0.3, sample_interval=120.0),
        )
        by_policy = {row["policy"]: row for row in rows}
        assert set(by_policy) == {"normal", "max-parallelism"}
        for row in rows:
            assert row["samples"] > 0
            assert 0.0 <= row["cpu_util_mean"] <= 1.0
            assert row["cpu_util_std"] >= 0.0
        # The "higher and more variable" claim itself is asserted at
        # bench scale (benchmarks/bench_fig16_utilization.py); this run
        # is too short for stable means.


class TestParallelJobsEquivalence:
    """`jobs=N` must be row-for-row identical to serial execution
    (NaN-tolerant via JSON encoding), across every driver family."""

    @staticmethod
    def _encoded(rows):
        return json.dumps(rows)

    def test_service_sweep(self):
        kwargs = dict(
            t_jobs=(0.1, 10.0), clusters=("A",), horizon=HOURS, seed=0,
            scale=SCALE,
        )
        serial = run(EXPERIMENTS["fig5c"], kwargs)
        parallel = run(EXPERIMENTS["fig5c"], kwargs, jobs=2)
        assert self._encoded(serial) == self._encoded(parallel)
        assert [list(r) for r in serial] == [list(r) for r in parallel]

    def test_batch_load_sweep(self):
        kwargs = dict(
            factors=(1.0, 4.0), clusters=("A",), horizon=HOURS, seed=0,
            scale=SCALE,
        )
        serial = run(EXPERIMENTS["fig8"], kwargs)
        parallel = run(EXPERIMENTS["fig8"], kwargs, jobs=2)
        assert self._encoded(serial) == self._encoded(parallel)

    def test_figure10_scheme_labels_survive_parallelism(self):
        kwargs = dict(
            t_jobs=(1.0,), t_tasks=(0.01,), cluster="A", horizon=HOURS,
            seed=0, scale=SCALE,
        )
        serial = run(EXPERIMENTS["fig10"], kwargs)
        parallel = run(EXPERIMENTS["fig10"], kwargs, jobs=2)
        assert self._encoded(serial) == self._encoded(parallel)
        assert [row["scheme"] for row in parallel] == [
            label for label, _, _ in SCHEMES
        ]

    def test_ablation_custom_row_shape(self):
        kwargs = dict(scale=SCALE, horizon=HOURS, seed=3)
        serial = run(EXPERIMENTS["ablation-preemption"], kwargs)
        parallel = run(EXPERIMENTS["ablation-preemption"], kwargs, jobs=2)
        assert self._encoded(serial) == self._encoded(parallel)
        assert [row["preemption"] for row in parallel] == ["off", "on"]
