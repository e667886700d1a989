"""End-to-end: a traced run produces a complete, consistent trace.

The agreement checks here are the tentpole invariant: transactions,
conflicts, outcomes, attempts and busy time derived from the
``sched.attempt`` records must equal the MetricsCollector aggregates
the paper figures are computed from, on every architecture.
"""

from __future__ import annotations

import math
from collections import Counter as TallyCounter

import pytest

from repro import CLUSTER_B, LightweightConfig, obs, run_lightweight
from repro.experiments import cli
from repro.experiments.common import LightweightSimulation
from repro.experiments.resilience import resilience_points
from repro.hifi import HighFidelityConfig, synthesize_trace
from repro.hifi.replay import HighFidelitySimulation
from repro.obs.export import read_jsonl
from repro.obs.histogram import Histogram
from repro.obs.summary import TraceSummary, summarize_file
from repro.schedulers import DecisionTimeModel
from repro.schedulers.base import QueueScheduler
from repro.world import RunContext
from tests.conftest import tiny_preset


def _traced_run(**overrides):
    """One small Omega run with the in-memory recorder installed."""
    config = LightweightConfig(
        preset=CLUSTER_B.scaled(0.05),
        architecture="omega",
        horizon=2 * 3600.0,
        seed=11,
        **overrides,
    )
    recorder = obs.TraceRecorder()
    return run_lightweight(config, RunContext(recorder)), recorder


@pytest.fixture(scope="module")
def traced():
    result, recorder = _traced_run()
    return result, recorder, TraceSummary.from_records(recorder.records)


def test_every_record_is_well_formed(traced):
    _, recorder, _ = traced
    assert recorder.records_emitted == len(recorder.records) > 0
    for record in recorder.records:
        assert set(record) <= {"name", "t", "sched", "job", "attempt", "fields"}
        assert isinstance(record["name"], str) and "." in record["name"]
    attempts = [r for r in recorder.records if r["name"] == "sched.attempt"]
    assert attempts
    for record in attempts:
        assert record["sched"] is not None
        assert record["job"] is not None
        assert record["attempt"] >= 1
        assert record["fields"]["t0"] <= record["t"]


def _jobs_and_trace(run):
    """Call ``run(recorder)`` traced in memory; returns its result,
    every job any scheduler was handed, and the records."""
    jobs = {}
    submit = QueueScheduler.submit

    def remember(scheduler, job):
        jobs[id(job)] = job
        submit(scheduler, job)

    recorder = obs.TraceRecorder()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QueueScheduler, "submit", remember)
        result = run(recorder)
    return result, list(jobs.values()), recorder.records


def _lightweight(architecture):
    return lambda recorder: run_lightweight(
        LightweightConfig(
            preset=CLUSTER_B.scaled(0.05), architecture=architecture,
            horizon=2 * 3600.0, seed=11,
        ),
        RunContext(recorder),
    )


def _hifi(recorder):
    trace = synthesize_trace(tiny_preset(num_machines=60), horizon=1800.0, seed=5)
    config = HighFidelityConfig(trace=trace, seed=0)
    return HighFidelitySimulation(config, RunContext(recorder)).run()


def _chaos(recorder):
    """Omega under intensity-10 faults: commit drops and two
    scheduler crashes that each cut an attempt short."""
    ((config, _),) = resilience_points(intensities=(10.0,), architectures=("omega",), seed=1)
    return LightweightSimulation(config, RunContext(recorder)).run()


CLOSURE_RUNS = {
    "omega": _lightweight("omega"),
    "monolithic": _lightweight("monolithic-single"),
    "partitioned": _lightweight("partitioned"),
    "mesos": _lightweight("mesos"),
    "hifi": _hifi,
    "chaos": _chaos,
}


@pytest.mark.parametrize("run", sorted(CLOSURE_RUNS))
def test_attempt_records_close_against_the_metrics(run):
    """One ``sched.attempt`` per attempt adds up to what the metrics
    collector counted, on every architecture and through faults."""
    result, jobs, records = _jobs_and_trace(CLOSURE_RUNS[run])
    metrics = result.metrics
    per_scheduler = list(metrics.schedulers.values())
    attempts = [r for r in records if r["name"] == "sched.attempt"]
    fields = [r["fields"] for r in attempts]
    outcomes = TallyCounter(f.get("outcome") for f in fields)
    assert attempts
    if run == "chaos":
        assert outcomes["crashed"] and any(f.get("dropped") for f in fields)
    # A dropped Omega commit counts as a conflicted transaction with no
    # claims: ``conflicted`` marks every attempt the collector counted.
    assert sum("conflicted" in f for f in fields) == sum(
        m.transactions_attempted for m in per_scheduler
    )
    assert sum(bool(f.get("conflicted")) for f in fields) == sum(
        sum(m.conflicts.values()) for m in per_scheduler
    )
    assert outcomes["scheduled"] == metrics.jobs_scheduled_total
    assert outcomes["abandoned"] == metrics.jobs_abandoned_total
    assert len(attempts) - outcomes["crashed"] == sum(job.attempts for job in jobs)
    busy = sum(r["t"] - r["fields"]["t0"] for r in attempts)
    assert math.isclose(
        busy, sum(sum(m.busy_time.values()) for m in per_scheduler), rel_tol=1e-9
    )


def test_trace_agrees_with_metrics_collector(traced):
    result, _, summary = traced
    metrics = result.metrics
    for name in summary.scheduler_names():
        entry = summary.schedulers[name]
        trace_fraction = entry.conflict_fraction
        collector_fraction = metrics.overall_conflict_fraction(name)
        if math.isnan(collector_fraction):
            assert math.isnan(trace_fraction)
        else:
            assert trace_fraction == pytest.approx(collector_fraction)
        busy = sum(metrics.schedulers[name].busy_time.values())
        assert entry.busy_seconds == pytest.approx(busy)
    trace_txns = sum(e.txn_attempts for e in summary.schedulers.values())
    collector_txns = sum(
        m.transactions_attempted for m in metrics.schedulers.values()
    )
    assert trace_txns == collector_txns
    assert sum(e.jobs_scheduled for e in summary.schedulers.values()) == (
        result.jobs_scheduled
    )


def test_conflicted_runs_trace_the_conflicts():
    # Slow service decisions plus a batch-arrival surge (lots of churn
    # under the stale service snapshot) force commit conflicts.
    result, recorder = _traced_run(
        service_model=DecisionTimeModel(t_job=30.0, t_task=1.0),
        num_batch_schedulers=4,
        batch_rate_factor=4.0,
    )
    summary = TraceSummary.from_records(recorder.records)
    metrics = result.metrics
    total_conflicts = sum(e.txn_conflicted for e in summary.schedulers.values())
    assert total_conflicts > 0, "expected at least one conflict in this setup"
    # Each conflicted commit names its conflicts: the scheduler passes
    # its recorder's ``enabled`` to ``commit(tracing=...)``.
    conflicted = [
        r["fields"] for r in recorder.records
        if r["name"] == "sched.attempt" and r["fields"].get("conflicted")
    ]
    assert len(conflicted) == total_conflicts
    assert all(fields["conflicts"] for fields in conflicted)
    for name in summary.scheduler_names():
        entry = summary.schedulers[name]
        fraction = metrics.overall_conflict_fraction(name)
        if not math.isnan(fraction):
            assert entry.conflict_fraction == pytest.approx(fraction)
    # Conflicted commits mark the retry chain and the rework busy time.
    assert summary.retry_chains(top_n=1)[0].attempts > 1
    assert any(
        e.busy_conflict_seconds > 0 for e in summary.schedulers.values()
    )


def test_tracing_does_not_change_the_simulation():
    traced_result, _ = _traced_run()
    config = LightweightConfig(
        preset=CLUSTER_B.scaled(0.05), architecture="omega",
        horizon=2 * 3600.0, seed=11,
    )
    plain = run_lightweight(config)
    assert plain.jobs_submitted == traced_result.jobs_submitted
    assert plain.jobs_scheduled == traced_result.jobs_scheduled
    assert plain.events_processed == traced_result.events_processed


def test_run_start_marker_present(traced):
    _, recorder, summary = traced
    assert summary.runs == 1
    (start,) = [r for r in recorder.records if r["name"] == "run.start"]
    assert start["fields"]["architecture"] == "omega"
    assert start["fields"]["seed"] == 11


def test_sim_stats_surface_on_result(traced):
    result, _, _ = traced
    stats = result.sim_stats
    assert stats["events_processed"] == result.events_processed
    assert stats["peak_queue_depth"] > 0
    assert stats["wall_seconds"] > 0.0


def test_run_end_carries_engine_stats(traced):
    result, recorder, summary = traced
    (end,) = [r for r in recorder.records if r["name"] == "run.end"]
    stats = dict(result.sim_stats)
    stats["wall_ms"] = stats.pop("wall_seconds") * 1000.0
    assert end["fields"] == stats
    assert summary.engine_rows == [{"run": 1, **stats}]


def test_engine_rows_of_a_parallel_trace_equal_the_serial_ones(tmp_path, capsys):
    """Worker traces are replayed into the parent's, so ``--jobs 2``
    yields the serial trace's engine rows, wall time aside."""
    rows = {}
    for jobs in ("1", "2"):
        path = str(tmp_path / f"jobs{jobs}.jsonl")
        argv = ["fig8", "--scale", "0.05", "--hours", "0.3", "--jobs", jobs]
        assert cli.main([*argv, "--trace", path]) == 0
        rows[jobs] = [
            {key: value for key, value in row.items() if key != "wall_ms"}
            for row in summarize_file(path).engine_rows
        ]
    capsys.readouterr()
    assert [row["run"] for row in rows["1"]] == list(range(1, 19))
    assert all(row["events_processed"] > 0 for row in rows["1"])
    assert rows["2"] == rows["1"]


def test_cli_trace_flag_and_trace_subcommand(tmp_path, capsys):
    trace_path = str(tmp_path / "trace.jsonl")
    cli.main(["fig8", "--scale", "0.05", "--hours", "1", "--trace", trace_path])
    capsys.readouterr()
    records = read_jsonl(trace_path)
    assert records, "trace file should not be empty"
    assert any(
        r["name"] == "sched.attempt" and "claims" in r["fields"] for r in records
    )

    cli.main(["trace", trace_path])
    out = capsys.readouterr().out
    assert "trace summary:" in out
    assert "per-scheduler rollup:" in out
    assert "omega-batch" in out
    assert "engine statistics (one row per run):" in out


def _escalation_metrics_record(scheduler: str, policy: str, attempts):
    """A minimal ``run.metrics`` record carrying one escalation histogram."""
    histogram = Histogram(
        "jobs.attempts_until_escalation",
        {"scheduler": scheduler, "policy": policy},
    )
    for value in attempts:
        histogram.observe(value)
    return {
        "name": "run.metrics",
        "t": 0.0,
        "fields": {
            "histograms": [
                {
                    "name": histogram.name,
                    "labels": histogram.labels,
                    "state": histogram.state(),
                }
            ]
        },
    }


def _conflict_record(machine: int, tasks: int, cause: str, sched="omega-batch-0"):
    """An attempt whose commit had one conflict."""
    return {
        "name": "sched.attempt",
        "t": 1.0,
        "sched": sched,
        "fields": {"t0": 0.5, "conflicts": [[machine, tasks, cause]]},
    }


class TestContendedMachineRows:
    def test_ranked_by_tasks_with_cause_split(self):
        summary = TraceSummary.from_records(
            [
                _conflict_record(3, 2, "capacity"),
                _conflict_record(3, 2, "stale_sequence"),
                _conflict_record(7, 9, "partial_capacity"),
                _conflict_record(1, 4, "capacity"),
            ]
        )
        rows = summary.contended_machine_rows()
        assert [row["machine"] for row in rows] == [7, 3, 1]
        top = rows[0]
        assert top == {
            "machine": 7,
            "events": 1,
            "tasks": 9,
            "stale_sequence": 0,
            "partial_capacity": 1,
            "capacity": 0,
        }
        assert rows[1]["events"] == 2
        assert rows[1]["stale_sequence"] == rows[1]["capacity"] == 1

    def test_events_then_machine_id_break_ties(self):
        summary = TraceSummary.from_records(
            [
                _conflict_record(5, 4, "capacity"),
                _conflict_record(2, 2, "capacity"),
                _conflict_record(2, 2, "capacity"),
                _conflict_record(8, 4, "capacity"),
                _conflict_record(8, 0, "capacity"),
            ]
        )
        machines = [row["machine"] for row in summary.contended_machine_rows()]
        # Everything ties on tasks=4; 2 and 8 also tie on events=2, so
        # the machine id decides, and 5 sorts last on its single event.
        assert machines == [2, 8, 5]

    def test_top_n_truncates_and_validates(self):
        records = [_conflict_record(m, m + 1, "capacity") for m in range(5)]
        summary = TraceSummary.from_records(records)
        assert len(summary.contended_machine_rows(top_n=2)) == 2
        with pytest.raises(ValueError):
            summary.contended_machine_rows(top_n=0)


class TestEscalationRows:
    def test_rows_from_run_metrics_histograms(self):
        summary = TraceSummary.from_records(
            [
                _escalation_metrics_record(
                    "omega-batch-0", "starvation", [2.0, 4.0]
                ),
                _escalation_metrics_record(
                    "omega-batch-1", "starvation", [10.0]
                ),
            ]
        )
        rows = summary.escalation_rows()
        assert [(row["scheduler"], row["policy"]) for row in rows] == [
            ("omega-batch-0", "starvation"),
            ("omega-batch-1", "starvation"),
        ]
        first, second = rows
        assert first["escalations"] == 2
        assert first["mean_attempts"] == pytest.approx(3.0)
        assert second["escalations"] == 1
        assert second["max"] == pytest.approx(10.0)

    def test_merge_across_runs(self):
        # Two runs of the same (scheduler, policy) fold into one row.
        summary = TraceSummary.from_records(
            [
                _escalation_metrics_record("omega-batch-0", "starvation", [2.0]),
                _escalation_metrics_record("omega-batch-0", "starvation", [6.0]),
            ]
        )
        (row,) = summary.escalation_rows()
        assert row["escalations"] == 2
        assert row["mean_attempts"] == pytest.approx(4.0)


def test_render_and_rollup_surface_contention_sections():
    summary = TraceSummary.from_records(
        [
            _conflict_record(3, 2, "capacity"),
            _escalation_metrics_record("omega-batch-0", "starvation", [2.0]),
        ]
    )
    text = summary.render()
    assert "top contended machines (commit conflict rejections):" in text
    assert "escalation latency (attempts until gang→incremental):" in text
    rollup = summary.json_rollup()
    assert rollup["contended_machines"][0]["machine"] == 3
    assert rollup["escalation_rows"][0]["policy"] == "starvation"
