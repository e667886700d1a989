"""Integration tests for the conflict-avoidance experiment.

The experiment's correctness claims: the predictor-off rows run the
byte-identical predictor-off code path (no predictor objects exist at
all), the predictor-on rows share one predictor instance between each
scheduler's steering and its predictive retry policy, serial and
``--jobs 2`` execution produce identical rows (picklable configs), and
the delta pairing attaches on-minus-off columns correctly.
"""

import math

from repro.core.transaction import CommitMode
from repro.experiments.common import LightweightConfig, LightweightSimulation
from repro.experiments.conflict_avoidance import DELTA_COLUMNS, attach_deltas
from repro.experiments.registry import EXPERIMENTS, run
from repro.faults import PredictorConfig
from repro.faults.retry import RetryPolicyConfig
from repro.workload.clusters import CLUSTER_B

SCALE = 0.05
HORIZON = 900.0
SEED = 7


def small_rows(jobs: int = 1):
    return run(
        EXPERIMENTS["conflict-avoidance"],
        dict(
            factors=(4.0,),
            intensities=(0.0, 5.0),
            scale=SCALE,
            horizon=HORIZON,
            seed=SEED,
        ),
        jobs=jobs,
    )


def assert_same(actual, expected, label=""):
    same = (
        isinstance(actual, float)
        and isinstance(expected, float)
        and math.isnan(actual)
        and math.isnan(expected)
    ) or actual == expected
    assert same, f"{label}: {actual!r} != {expected!r}"


class TestPredictorWiring:
    def _config(self, kind: str) -> LightweightConfig:
        return LightweightConfig(
            preset=CLUSTER_B.scaled(SCALE),
            architecture="omega",
            horizon=HORIZON,
            seed=SEED,
            num_batch_schedulers=2,
            commit_mode=CommitMode.ALL_OR_NOTHING,
            retry_policy=RetryPolicyConfig(kind=kind),
        )

    def test_off_rows_build_no_predictor_objects(self):
        """The predictor-off path must be the pre-predictor code path:
        no ConflictPredictor is ever constructed, so every ``predictor
        is None`` guard short-circuits."""
        sim = LightweightSimulation(self._config("starvation")).build()
        assert sim.config.predictor is None
        predictors = [
            getattr(scheduler, "predictor", None) for scheduler in sim.schedulers
        ]
        assert predictors == [None] * len(predictors)

    def test_predictive_policy_auto_enables_predictor(self):
        config = self._config("predictive")
        assert config.predictor == PredictorConfig(
            escalate_probability=RetryPolicyConfig(
                kind="predictive"
            ).escalate_probability
        )

    def test_each_scheduler_shares_one_predictor_with_its_policy(self):
        sim = LightweightSimulation(self._config("predictive")).build()
        omega = [
            scheduler
            for scheduler in sim.schedulers
            if getattr(scheduler, "predictor", None) is not None
        ]
        assert len(omega) >= 2
        for scheduler in omega:
            # Steering and escalation must consult the same model.
            assert scheduler.retry_policy.predictor is scheduler.predictor
        instances = {id(scheduler.predictor) for scheduler in omega}
        assert len(instances) == len(omega)  # never shared across schedulers


class TestRows:
    def test_grid_shape_and_columns(self):
        rows = small_rows()
        assert len(rows) == 4  # (off, on) x (intensity 0, 5)
        for row in rows:
            for column in DELTA_COLUMNS + (
                "wasted_batch",
                "escalated",
                "steered",
                "steer_fallback",
                "avoided",
                "incurred",
                "invariant_checks",
            ):
                assert column in row, column
            assert row["invariant_checks"] > 0
        off = [row for row in rows if row["predictor"] == "off"]
        on = [row for row in rows if row["predictor"] == "on"]
        assert len(off) == len(on) == 2
        for row in off:
            assert row["steered"] == 0
            assert all(row[column] == 0.0 for column in DELTA_COLUMNS)
        # Predictor-on rows actually exercised steering.
        assert all(row["steered"] > 0 for row in on)

    def test_jobs_2_rows_identical_to_serial(self):
        serial = small_rows(jobs=1)
        parallel = small_rows(jobs=2)
        assert len(serial) == len(parallel)
        for left, right in zip(serial, parallel):
            assert left.keys() == right.keys()
            for key in left:
                assert_same(left[key], right[key], label=key)

    def test_smoke_rows_cover_both_paths(self):
        experiment = EXPERIMENTS["conflict-avoidance"]
        rows = run(experiment, {**experiment.smoke, "seed": SEED})
        assert {row["predictor"] for row in rows} == {"off", "on"}
        assert {row["intensity"] for row in rows} == {0.0, 5.0}


class TestAttachDeltas:
    def test_deltas_pair_on_with_off(self):
        rows = [
            {
                "predictor": "off",
                "rate_factor": 4.0,
                "intensity": 5.0,
                "conflict_batch": 0.2,
                "wasted_batch": 0.10,
                "abandoned": 3,
            },
            {
                "predictor": "on",
                "rate_factor": 4.0,
                "intensity": 5.0,
                "conflict_batch": 0.15,
                "wasted_batch": 0.07,
                "abandoned": 1,
            },
        ]
        attach_deltas(rows)
        off, on = rows
        assert all(off[column] == 0.0 for column in DELTA_COLUMNS)
        assert on["d_conflict"] == 0.15 - 0.2
        assert on["d_wasted"] == 0.07 - 0.10
        assert on["d_abandoned"] == -2
