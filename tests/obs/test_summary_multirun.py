"""Multi-run trace rollups: when one JSONL holds several runs, the
summary prefixes scheduler and job keys with the run index so runs
never alias; a single-run trace stays byte-identical to before."""

import pytest

from repro.experiments import cli
from repro.obs.summary import TraceSummary


def run_start(architecture="omega", seed=0):
    return {
        "name": "run.start",
        "t": 0.0,
        "fields": {"trace_version": 2, "architecture": architecture, "seed": seed},
    }


def commit(sched, job, t=1.0, attempt=1):
    """An attempt whose commit went through."""
    return {
        "name": "sched.attempt",
        "t": t,
        "sched": sched,
        "job": job,
        "attempt": attempt,
        "fields": {
            "t0": t - 0.5, "claims": 1, "tasks": 4, "accepted": 4, "rejected": 0,
            "conflicted": False, "outcome": "scheduled",
        },
    }


def busy(sched, t=1.0):
    """An attempt that planned nothing, so issued no commit."""
    return {
        "name": "sched.attempt",
        "t": t,
        "sched": sched,
        "fields": {"t0": t - 0.5, "conflict_retry": False, "skip": "no_placement"},
    }


class TestMultiRunPrefixing:
    def test_two_runs_same_scheduler_name_stay_separate(self):
        """The regression this guards: two runs whose schedulers share a
        name used to merge into one rollup entry."""
        records = [
            run_start(seed=0),
            busy("omega-batch", t=1.0),
            commit("omega-batch", job=1, t=2.0),
            run_start(seed=1),
            busy("omega-batch", t=1.0),
            commit("omega-batch", job=1, t=2.0),
        ]
        summary = TraceSummary.from_records(records)
        assert summary.runs == 2
        assert set(summary.scheduler_names()) == {
            "run1/omega-batch",
            "run2/omega-batch",
        }
        for name in summary.scheduler_names():
            entry = summary.schedulers[name]
            assert (entry.txn_attempts, entry.txn_conflicted) == (1, 0)

    def test_job_ids_are_run_scoped(self):
        records = [
            run_start(seed=0),
            commit("omega-batch", job=17),
            run_start(seed=1),
            commit("omega-batch", job=17),
        ]
        summary = TraceSummary.from_records(records)
        assert set(summary.jobs) == {"run1/17", "run2/17"}

    def test_single_run_keys_stay_bare(self):
        """A single-run trace must roll up byte-identically to before
        multi-run support: no prefixes anywhere."""
        records = [
            run_start(),
            busy("omega-batch"),
            commit("omega-batch", job=3),
        ]
        summary = TraceSummary.from_records(records)
        assert summary.runs == 1
        assert set(summary.scheduler_names()) == {"omega-batch"}
        assert set(summary.jobs) == {3}

    def test_records_without_run_start_stay_bare(self):
        """Fragment traces (no run.start at all) keep bare keys too."""
        summary = TraceSummary.from_records([commit("omega-batch", job=3)])
        assert set(summary.scheduler_names()) == {"omega-batch"}
        assert set(summary.jobs) == {3}

    def test_render_shows_run_prefixed_sections(self):
        records = [
            run_start(seed=0),
            busy("omega-batch"),
            commit("omega-batch", job=1),
            run_start(seed=1),
            busy("omega-batch"),
            commit("omega-batch", job=1),
        ]
        summary = TraceSummary.from_records(records)
        text = summary.render()
        assert "run1/omega-batch" in text
        assert "run2/omega-batch" in text
        rollup = summary.json_rollup()
        assert rollup["runs"] == 2


class TestSeveralFiles:
    """``omega-sim trace a b`` reads its files as one trace: runs are
    numbered across files, as in ``cat a b``, so two runs compare side
    by side."""

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("runs")
        paths = [directory / f"seed{seed}.jsonl" for seed in (0, 1)]
        for seed, path in enumerate(paths):
            argv = ["omega", "--smoke", "--seed", str(seed), "--timeline-interval", "300"]
            assert cli.main([*argv, "--trace", str(path)]) == 0
        joined = directory / "cat.jsonl"
        joined.write_bytes(b"".join(path.read_bytes() for path in paths))
        return [str(path) for path in paths], str(joined)

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_output_is_that_of_the_concatenation(self, capsys, traces, flags):
        paths, joined = traces
        capsys.readouterr()
        assert cli.main(["trace", *paths, *flags]) == 0
        several = capsys.readouterr().out
        assert cli.main(["trace", joined, *flags]) == 0
        assert several == capsys.readouterr().out
        assert "run1/omega-batch" in several and "run2/omega-batch" in several
