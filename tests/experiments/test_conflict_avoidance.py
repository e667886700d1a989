"""Integration tests for the conflict-avoidance experiment.

The experiment's correctness claims: its ``escalate_after=3`` rows are
a plain ``starvation`` run of the same Figure-8 operating point, its
``escalate_after=1`` rows escalate more, serial and ``--jobs 2``
execution produce identical rows (picklable configs), and the delta
pairing attaches 1-minus-3 columns correctly.
"""

import math

from repro.core.retry import RetryPolicyConfig
from repro.core.transaction import CommitMode
from repro.experiments.conflict_avoidance import (
    DELTA_COLUMNS,
    attach_deltas,
    conflict_avoidance_columns,
)
from repro.experiments.registry import EXPERIMENTS, run, run_point
from repro.experiments.resilience import BASELINE_FAULTS
from repro.experiments.sweeps import batch_load_points

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


class TestRows:
    def test_grid_shape_and_columns(self):
        rows = small_rows()
        assert len(rows) == 4  # escalate_after (3, 1) x (intensity 0, 5)
        for row in rows:
            for column in DELTA_COLUMNS + (
                "wasted_batch",
                "escalated",
                "invariant_checks",
            ):
                assert column in row, column
            assert row["invariant_checks"] > 0
        late = [row for row in rows if row["escalate_after"] == 3]
        early = [row for row in rows if row["escalate_after"] == 1]
        assert len(late) == len(early) == 2
        for row in late:
            assert all(row[column] == 0.0 for column in DELTA_COLUMNS)

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
        assert {row["escalate_after"] for row in rows} == {3, 1}
        assert {row["intensity"] for row in rows} == {0.0, 5.0}


class TestEscalateAfter:
    def test_3_rows_are_plain_starvation_runs_and_1_rows_escalate_more(self):
        rows = small_rows()
        for intensity in (0.0, 5.0):
            late, early = (
                next(
                    row
                    for row in rows
                    if row["intensity"] == intensity
                    and row["escalate_after"] == escalate_after
                )
                for escalate_after in (3, 1)
            )
            ((config, extra),) = batch_load_points(
                (4.0,),
                cluster="B",
                num_batch_schedulers=4,
                horizon=HORIZON,
                seed=SEED,
                scale=SCALE,
                commit_mode=CommitMode.ALL_OR_NOTHING,
                fault_config=BASELINE_FAULTS.scaled(intensity),
                retry_policy=RetryPolicyConfig(kind="starvation"),
                invariant_check_interval=HORIZON / 8.0,
            )
            plain = run_point(
                (config, {"rate_factor": extra["rate_factor"]}),
                columns=conflict_avoidance_columns,
            )
            for key, value in plain.items():
                assert_same(late[key], value, label=f"{intensity}/{key}")
            assert early["escalated"] > late["escalated"]


class TestAttachDeltas:
    def test_deltas_pair_each_1_row_with_its_3_row(self):
        rows = [
            {
                "escalate_after": 3,
                "rate_factor": 4.0,
                "intensity": 5.0,
                "conflict_batch": 0.2,
                "wasted_batch": 0.10,
                "abandoned": 3,
            },
            {
                "escalate_after": 1,
                "rate_factor": 4.0,
                "intensity": 5.0,
                "conflict_batch": 0.15,
                "wasted_batch": 0.07,
                "abandoned": 1,
            },
        ]
        attach_deltas(rows)
        late, early = rows
        assert all(late[column] == 0.0 for column in DELTA_COLUMNS)
        assert early["d_conflict"] == 0.15 - 0.2
        assert early["d_wasted"] == 0.07 - 0.10
        assert early["d_abandoned"] == -2
