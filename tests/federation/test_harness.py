"""Integration tests for the federated simulation harness: the
degenerate-baseline gate, determinism, graceful degradation, the job
accounting invariant, and the merged wait-time percentiles."""

import math

import pytest

from repro.experiments import federation
from repro.experiments.common import run_lightweight
from repro.experiments.federation import (
    SHARED_COLUMNS,
    build_federation,
    degenerate_check,
    degenerate_points,
    federation_points,
)
from repro.experiments.registry import DEGENERATE_GATE, EXPERIMENTS, run
from repro.experiments.sweeps import CheckFailed
from repro.federation.config import FederationFaultConfig
from repro.federation.router import FrontDoor
from repro.metrics.stats import median, percentile
from repro.obs.histogram import Histogram
from repro.workload.job import JobType

SCALE = 0.05
HORIZON = 1800.0
SEED = 5


def assert_same(actual, expected, label=""):
    """Exact equality, treating NaN == NaN (empty-mean wait columns)."""
    same = (
        isinstance(actual, float)
        and isinstance(expected, float)
        and math.isnan(actual)
        and math.isnan(expected)
    ) or actual == expected
    assert same, f"{label}: {actual!r} != {expected!r}"


def rows_for(cells=(2,), staleness=(60.0,), intensities=(2.0,), jobs=1, **kwargs):
    return run(
        EXPERIMENTS["federation"],
        dict(
            cells=cells,
            staleness_values=staleness,
            intensities=intensities,
            scale=SCALE,
            horizon=HORIZON,
            seed=SEED,
            **kwargs,
        ),
        jobs=jobs,
    )


def run_one(cells=2, staleness=60.0, intensity=2.0, **kwargs):
    """Build and run a single federation point, returning the result."""
    point = federation_points(
        cells=(cells,),
        staleness_values=(staleness,),
        intensities=(intensity,),
        scale=SCALE,
        horizon=HORIZON,
        seed=SEED,
        **kwargs,
    )[0]
    federation = build_federation(point[0])
    result = federation.run()
    assert federation.check_invariants() == []
    return result


class TestDegenerateBaseline:
    def test_one_cell_zero_staleness_matches_single_cell_byte_for_byte(self):
        """The acceptance bar: a 1-cell, zero-staleness, zero-intensity
        federation reproduces the single-cell omega table exactly —
        the gate's finish hook raises otherwise."""
        (row,) = run(DEGENERATE_GATE, dict(horizon=HORIZON, seed=0, scale=SCALE))
        assert set(SHARED_COLUMNS) <= set(row)
        assert row["cells"] == 1

    def test_any_shared_column_differing_fails_the_gate(self):
        row = dict.fromkeys(SHARED_COLUMNS, 0.5)
        assert degenerate_check([row, dict(row)]) == [row]
        with pytest.raises(CheckFailed, match="degenerate-baseline gate FAILED"):
            degenerate_check([row, {**row, "wait_batch": 0.6}])


class TestZeroIntensityIdentity:
    def test_zero_intensity_matches_disabled_fault_config_exactly(self, monkeypatch):
        """Intensity 0 must run the exact fault-free code path: the
        chaos engine is never installed and no stream is consumed."""
        with_baseline = rows_for(intensities=(0.0,))
        monkeypatch.setattr(federation, "BASELINE_FED_FAULTS", FederationFaultConfig())
        disabled = rows_for(intensities=(0.0,))
        assert len(with_baseline) == len(disabled) == 1
        for key in with_baseline[0]:
            assert_same(with_baseline[0][key], disabled[0][key], label=key)

    def test_zero_intensity_reports_no_faults(self):
        (row,) = rows_for(intensities=(0.0,))
        assert row["blackouts"] == 0
        assert row["partitions"] == 0
        assert row["flaps"] == 0
        assert row["lost"] == 0
        assert row["migrated"] == 0


class TestDeterminism:
    def test_rerun_rows_identical(self):
        first = rows_for(intensities=(3.0,))
        second = rows_for(intensities=(3.0,))
        assert first == second

    def test_parallel_rows_identical_to_serial(self):
        """--jobs N must be invisible in the output, faults included
        (the determinism gate's --compare-jobs property, at test
        scale)."""
        serial = rows_for(cells=(1, 2), intensities=(0.0, 5.0))
        parallel = rows_for(cells=(1, 2), intensities=(0.0, 5.0), jobs=2)
        assert len(serial) == len(parallel) == 4
        for index, (a, b) in enumerate(zip(serial, parallel)):
            assert a.keys() == b.keys()
            for key in a:
                assert_same(a[key], b[key], label=f"row {index}: {key}")


class TestGracefulDegradation:
    @pytest.fixture(scope="class")
    def hostile(self):
        # rate_factor 2 keeps a standing backlog, so blackouts always
        # find queued jobs to drain and migrate.
        return run_one(cells=2, staleness=120.0, intensity=8.0, rate_factor=2.0)

    def test_faults_actually_fired(self, hostile):
        assert hostile.blackouts > 0
        assert hostile.flaps > 0

    def test_accounting_invariant_balances(self, hostile):
        """submitted == scheduled + pending + abandoned + lost_to_blackout
        — the checked invariant; FederatedSimulation.run() itself raises
        on imbalance, this spells the equation out."""
        counts = hostile.accounting
        assert counts["submitted"] == (
            counts["scheduled"]
            + counts["pending"]
            + counts["abandoned"]
            + counts["lost_to_blackout"]
        )
        assert counts["submitted"] > 0

    def test_blackouts_migrate_the_backlog(self, hostile):
        # Two cells at this intensity always catch at least one blackout
        # with a non-empty queue behind it.
        assert hostile.jobs_migrated > 0

    def test_federation_still_schedules_most_jobs(self, hostile):
        assert hostile.unscheduled_fraction < 0.5


class TestBoundedLedger:
    """The front door keeps only jobs it has not yet seen scheduled; the
    accounting of a long faulted run still equals a full classification
    of every job it was ever handed."""

    @pytest.fixture(scope="class")
    def ledger(self):
        every_job, longest = [], [0]
        submit = FrontDoor.submit

        def keep_every_job(door, job):
            every_job.append(job)
            submit(door, job)
            longest[0] = max(longest[0], len(door.jobs))

        point = federation_points(
            cells=(2,),
            staleness_values=(60.0,),
            intensities=(8.0,),
            scale=SCALE,
            horizon=24 * 3600.0,
            seed=SEED,
        )[0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FrontDoor, "submit", keep_every_job)
            federation = build_federation(point[0])
            result = federation.run()
        return federation.front_door, result, every_job, longest[0]

    def test_accounting_equals_a_full_classification(self, ledger):
        door, result, every_job, _ = ledger
        full = dict.fromkeys(("scheduled", "pending", "abandoned", "lost_to_blackout"), 0)
        for job in every_job:
            if job.fully_scheduled_time is not None:
                full["scheduled"] += 1
            elif job.abandoned:
                full["abandoned"] += 1
            elif job.job_id in door.lost_to_blackout:
                full["lost_to_blackout"] += 1
            else:
                full["pending"] += 1
        assert result.accounting == {"submitted": len(every_job), **full}
        assert min(full.values()) > 0, "every class should occur in this run"

    def test_ledger_stays_bounded(self, ledger):
        door, _, every_job, longest = ledger
        assert len(every_job) > 5_000
        assert longest < len(every_job) / 10
        assert len(door.jobs) + door.pruned == len(every_job)


class TestMergedWaitPercentiles:
    """Federation-wide percentiles via Histogram.merge_state must equal
    the percentiles of the pooled per-job samples, at bucket
    resolution."""

    @pytest.fixture(scope="class")
    def merged_and_samples(self):
        result = run_one(cells=2, staleness=60.0, intensity=2.0)
        merged = result.merged_wait_histogram()
        waits = [
            wait
            for cell in result.cell_results
            for job_type in (JobType.BATCH, JobType.SERVICE)
            for wait in cell.metrics.wait_times(job_type)
        ]
        return merged, waits

    def test_merge_state_equals_pooling_the_samples(self, merged_and_samples):
        merged, waits = merged_and_samples
        assert len(waits) > 0
        pooled = Histogram("jobs.wait_seconds", {})
        for wait in waits:
            pooled.observe(wait)
        assert merged.count == pooled.count == len(waits)
        for p in (50.0, 90.0, 99.0, 99.9):
            assert merged.percentile(p) == pooled.percentile(p)

    def test_percentiles_within_bucket_resolution_of_exact_samples(
        self, merged_and_samples
    ):
        """Both the histogram estimate and the exact sample percentile
        fall inside the same effective bucket (the interval between the
        nearest non-empty bucket edges around the target rank)."""
        merged, waits = merged_and_samples
        ordered = sorted(waits)
        for p in (50.0, 90.0, 99.0, 99.9):
            target = p / 100.0 * merged.count
            rank = max(0, math.ceil(target) - 1)
            exact = ordered[rank]
            lower, upper = self._effective_bucket(merged, target)
            estimate = merged.percentile(p)
            assert lower - 1e-9 <= estimate <= upper + 1e-9, (p, estimate)
            assert lower - 1e-9 <= exact <= upper + 1e-9, (p, exact)

    @staticmethod
    def _effective_bucket(hist, target):
        """The interval the histogram interpolates the target rank in:
        from the upper edge of the last non-empty bucket before it to
        its own bucket's upper edge (clamped to observed min/max)."""
        cumulative = 0.0
        lower = hist._min
        for index, count in enumerate(hist.counts):
            if count == 0:
                continue
            upper = (
                hist.bounds[index] if index < len(hist.bounds) else hist._max
            )
            if cumulative + count >= target:
                return lower, min(upper, hist._max)
            cumulative += count
            lower = upper
        return lower, hist._max


#: Every accessor :class:`~repro.metrics.results.PooledSummary` writes,
#: as ``(name, call arguments)``; ``None`` marks a property.
POOLED_ACCESSORS = [
    *((name, (kind,)) for name in ("mean_wait", "p90_wait") for kind in JobType),
    *(
        (name, (role,))
        for name in ("busyness", "busyness_mad", "noconflict_busyness", "conflict_fraction")
        for role in ("batch", "service")
    ),
    ("role_total", ("batch", "jobs_abandoned")),
    ("saturated", ()),
    ("jobs_submitted", None),
    ("jobs_scheduled", None),
    ("jobs_abandoned", None),
    ("unscheduled_fraction", None),
]


class TestPooledSummary:
    """A federated result is the N-cell case of the single-cell summary."""

    def test_two_cells_pool_p90_wait_and_noconflict_busyness(self):
        result = run_one(cells=2, staleness=60.0, intensity=0.0, rate_factor=4.0)
        cells = result.cell_results
        for job_type in (JobType.BATCH, JobType.SERVICE):
            waits = [w for cell in cells for w in cell.metrics.wait_times(job_type)]
            assert_same(result.p90_wait(job_type), percentile(waits, 90.0), job_type)
        medians = [
            median(cell.metrics.busyness_series(name, cell.horizon, productive=True))
            for cell in cells
            for name in cell.role_names("batch")
        ]
        assert len(medians) == 2
        assert result.noconflict_busyness("batch") == sum(medians) / len(medians)
        assert result.noconflict_busyness("batch") <= result.busyness("batch")

    @pytest.fixture(scope="class")
    def one_cell_and_alone(self):
        (federated, _), (single, _) = degenerate_points(
            rate_factor=4.0, horizon=HORIZON, seed=0, scale=SCALE
        )
        return build_federation(federated).run(), run_lightweight(single)

    @pytest.mark.parametrize(
        "name, args",
        POOLED_ACCESSORS,
        ids=lambda value: value
        if isinstance(value, str)
        else ",".join(getattr(item, "value", item) for item in value or ()),
    )
    def test_one_cell_federation_equals_the_cell_alone(
        self, one_cell_and_alone, name, args
    ):
        """The degenerate gate's claim at the accessor level: exactly
        equal floats, because there is one implementation."""
        federated, alone = (
            getattr(result, name) if args is None else getattr(result, name)(*args)
            for result in one_cell_and_alone
        )
        assert_same(federated, alone, name)


class TestResultShape:
    def test_row_schema(self):
        (row,) = rows_for()
        for column in SHARED_COLUMNS:
            assert column in row
        for column in (
            "cells",
            "staleness",
            "intensity",
            "policy",
            "wait_p50",
            "wait_p99",
            "wait_p999",
            "submitted",
            "scheduled",
            "pending",
            "lost",
            "migrated",
            "rerouted",
            "blackouts",
            "partitions",
            "flaps",
        ):
            assert column in row

    def test_grid_order_is_cells_staleness_intensity(self):
        rows = rows_for(cells=(1, 2), staleness=(0.0, 60.0), intensities=(0.0,))
        assert [(r["cells"], r["staleness"]) for r in rows] == [
            (1, 0.0),
            (1, 60.0),
            (2, 0.0),
            (2, 60.0),
        ]
