"""Integration tests for the resilience (fault-injection) experiment."""

import math

import pytest

from repro.experiments.common import LightweightConfig, run_lightweight
from repro.experiments.registry import EXPERIMENTS, run
from repro.experiments.resilience import (
    BASELINE_FAULTS,
    DEFAULT_INTENSITIES,
    RESILIENCE_ARCHITECTURES,
)
from repro.experiments.sweeps import result_row
from repro.workload.clusters import CLUSTER_B

SCALE = 0.05
HORIZON = 900.0
SEED = 7

FAULT_COLUMNS = (
    "machine_failures",
    "crashes",
    "commit_drops",
    "escalated",
    "abandoned_conflict",
    "invariant_checks",
)


def assert_same(actual, expected, label=""):
    """Exact equality, treating NaN == NaN (empty-mean wait columns)."""
    same = (
        isinstance(actual, float)
        and isinstance(expected, float)
        and math.isnan(actual)
        and math.isnan(expected)
    ) or actual == expected
    assert same, f"{label}: {actual!r} != {expected!r}"


def rows_for(intensities, architectures=("omega",), policy="immediate", jobs=1):
    return run(
        EXPERIMENTS["resilience"],
        dict(
            intensities=intensities,
            architectures=architectures,
            policy=policy,
            scale=SCALE,
            horizon=HORIZON,
            seed=SEED,
        ),
        jobs=jobs,
    )


class TestZeroFaultIdentity:
    @pytest.mark.parametrize("architecture", RESILIENCE_ARCHITECTURES)
    def test_intensity_zero_matches_fault_free_run_exactly(self, architecture):
        """The acceptance bar: with the same seed, the zero-fault row is
        *exactly* the fault-free experiment — installing the resilience
        machinery (immediate retry policy, invariant checker, disabled
        fault config) must not perturb a single metric."""
        (row,) = rows_for((0.0,), architectures=(architecture,))
        baseline = result_row(
            run_lightweight(
                LightweightConfig(
                    preset=CLUSTER_B.scaled(SCALE),
                    architecture=architecture,
                    horizon=HORIZON,
                    seed=SEED,
                )
            )
        )
        for key, expected in baseline.items():
            assert_same(row[key], expected, label=f"{architecture}: {key}")

    def test_intensity_zero_reports_no_faults(self):
        (row,) = rows_for((0.0,))
        assert row["machine_failures"] == 0
        assert row["crashes"] == 0
        assert row["commit_drops"] == 0
        assert row["escalated"] == 0
        assert row["abandoned_conflict"] == 0
        # ... but the invariant gate did run: 8 periodic ticks plus
        # the post-run check.
        assert row["invariant_checks"] == 9


class TestFaultInjection:
    def test_high_intensity_injects_and_survives_invariant_gate(self):
        (row,) = rows_for((25.0,), policy="starvation")
        assert row["machine_failures"] > 0
        assert row["commit_drops"] > 0
        assert row["invariant_checks"] == 9
        # The run completed, so the post-run check_invariants() gate
        # (which raises on violation) passed too.

    def test_row_schema(self):
        (row,) = rows_for((1.0,))
        for column in FAULT_COLUMNS:
            assert column in row
        assert row["architecture"] == "omega"
        assert row["intensity"] == 1.0
        assert "wait_batch" in row and "utilization" in row

    def test_grid_covers_architectures_x_intensities(self):
        rows = rows_for((0.0, 1.0), architectures=("mesos", "omega"))
        assert [(r["architecture"], r["intensity"]) for r in rows] == [
            ("mesos", 0.0),
            ("mesos", 1.0),
            ("omega", 0.0),
            ("omega", 1.0),
        ]

    def test_defaults_are_the_documented_grid(self):
        assert DEFAULT_INTENSITIES == (0.0, 1.0, 3.0, 10.0)
        assert RESILIENCE_ARCHITECTURES == (
            "monolithic-multi",
            "partitioned",
            "mesos",
            "omega",
        )
        assert BASELINE_FAULTS.enabled


class TestParallelParity:
    def test_jobs_2_rows_identical_to_serial(self):
        """--jobs N must be invisible in the output (the determinism
        gate's --compare-jobs property, at test scale)."""
        serial = rows_for((0.0, 5.0), policy="starvation")
        parallel = rows_for((0.0, 5.0), policy="starvation", jobs=2)
        assert len(serial) == len(parallel)
        for index, (a, b) in enumerate(zip(serial, parallel)):
            assert a.keys() == b.keys()
            for key in a:
                assert_same(a[key], b[key], label=f"row {index}: {key}")
