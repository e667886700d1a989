"""Tests for the trace-driven high-fidelity simulation."""

import pytest

from repro import obs
from repro.core.transaction import CommitMode, ConflictMode
from repro.hifi.replay import HighFidelityConfig, HighFidelitySimulation, run_hifi
from repro.hifi.trace import synthesize_trace
from repro.obs.summary import TraceSummary
from repro.schedulers.base import DecisionTimeModel
from repro.world import RunContext
from tests.conftest import tiny_preset


@pytest.fixture(scope="module")
def trace():
    return synthesize_trace(tiny_preset(num_machines=60), horizon=1200.0, seed=5)


class TestReplay:
    def test_replays_all_jobs(self, trace):
        result = run_hifi(HighFidelityConfig(trace=trace, seed=0))
        assert result.jobs_submitted == trace.num_jobs
        assert result.jobs_scheduled + result.jobs_abandoned <= result.jobs_submitted
        assert result.jobs_scheduled > 0

    def test_deterministic(self, trace):
        first = run_hifi(HighFidelityConfig(trace=trace, seed=0))
        second = run_hifi(HighFidelityConfig(trace=trace, seed=0))
        assert first.jobs_scheduled == second.jobs_scheduled
        assert first.busyness("batch") == second.busyness("batch")
        assert first.final_cpu_utilization == second.final_cpu_utilization

    @pytest.mark.parametrize("machine_mtbf", [None, 2 * 3600.0])
    def test_invariants_hold_after_replay(self, trace, machine_mtbf):
        simulation = HighFidelitySimulation(
            HighFidelityConfig(
                trace=trace, seed=0, machine_mtbf=machine_mtbf, repair_time=300.0
            )
        )
        result = simulation.run()
        assert result.jobs_scheduled > 0
        assert (simulation.ledger is not None) == (machine_mtbf is not None)
        assert simulation.check_invariants() == []

    def test_multiple_batch_schedulers(self, trace):
        result = run_hifi(HighFidelityConfig(trace=trace, seed=0, num_batch_schedulers=3))
        assert len(result.batch_scheduler_names) == 3
        # Hash routing uses every scheduler.
        for name in result.batch_scheduler_names:
            assert result.metrics.schedulers[name].busy_time

    def test_horizon_override_limits_jobs(self, trace):
        result = run_hifi(HighFidelityConfig(trace=trace, seed=0, horizon=300.0))
        expected = sum(1 for job in trace.jobs if job.submit_time <= 300.0)
        assert result.jobs_submitted == expected

    def test_conflict_modes_accepted(self, trace):
        result = run_hifi(
            HighFidelityConfig(
                trace=trace,
                seed=0,
                conflict_mode=ConflictMode.COARSE,
                commit_mode=CommitMode.ALL_OR_NOTHING,
            )
        )
        assert result.jobs_scheduled > 0

    def test_validation(self, trace):
        with pytest.raises(ValueError):
            HighFidelityConfig(trace=trace, num_batch_schedulers=0)

    def test_build_twice_rejected(self, trace):
        simulation = HighFidelitySimulation(HighFidelityConfig(trace=trace))
        simulation.build()
        with pytest.raises(RuntimeError):
            simulation.build()


class TestSharedLifecycle:
    """The replay runs on the lifecycle every world shares, so it gets
    the ``run.start`` and ``run.metrics`` records the lightweight
    simulator always had."""

    @pytest.fixture(scope="class")
    def records(self, trace):
        recorder = obs.TraceRecorder()
        for num_batch_schedulers in (1, 3):
            HighFidelitySimulation(
                HighFidelityConfig(trace=trace, num_batch_schedulers=num_batch_schedulers),
                RunContext(recorder),
            ).run()
        return recorder.records

    def test_each_replay_records_one_run_start_and_one_run_metrics(self, records):
        names = [record["name"] for record in records]
        assert names.count("run.start") == names.count("run.metrics") == 2

    def test_trace_summary_has_wait_percentiles(self, records):
        rows = TraceSummary.from_records(records).percentile_rows()
        assert {row["scheduler"].split("/")[-1] for row in rows} >= {
            "hifi-batch",
            "hifi-service",
        }


class TestInterference:
    def test_slow_service_decisions_cause_conflicts(self, trace):
        """Long service decision times on shared state produce commit
        conflicts (the Figure 12 mechanism)."""
        slow = run_hifi(
            HighFidelityConfig(
                trace=trace,
                seed=0,
                service_model=DecisionTimeModel(t_job=30.0),
            )
        )
        fast = run_hifi(HighFidelityConfig(trace=trace, seed=0))
        assert slow.conflict_fraction("service") > fast.conflict_fraction("service")

    def test_noconflict_busyness_below_total(self, trace):
        result = run_hifi(
            HighFidelityConfig(
                trace=trace,
                seed=0,
                service_model=DecisionTimeModel(t_job=30.0),
            )
        )
        if result.conflict_fraction("service") > 0:
            assert result.noconflict_busyness("service") < result.busyness("service")

    def test_utilization_positive(self, trace):
        result = run_hifi(HighFidelityConfig(trace=trace, seed=0))
        assert 0.0 < result.final_cpu_utilization <= 1.0
