"""Tests for the Table 1/2 data and the omega-sim CLI."""

import dataclasses
import functools
import os

import pytest

from repro.experiments import registry
from repro.experiments.cli import build_parser, main
from repro.metrics.ascii_chart import format_table
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.tables import TABLE1, TABLE2, table1_rows, table2_rows

#: The grids that replay a trace through the high-fidelity simulator.
HIFI_REPLAYS = ("fig11", "fig12", "fig13", "fig14")


class TestTable1:
    def test_four_approaches(self):
        approaches = [row.approach for row in TABLE1]
        assert approaches == [
            "Monolithic",
            "Statically partitioned",
            "Two-level (Mesos)",
            "Shared-state (Omega)",
        ]

    def test_omega_and_monolithic_see_everything(self):
        by_name = {row.approach: row for row in TABLE1}
        assert by_name["Monolithic"].resource_choice == "all available"
        assert by_name["Shared-state (Omega)"].resource_choice == "all available"
        assert by_name["Two-level (Mesos)"].resource_choice == "dynamic subset"

    def test_concurrency_claims(self):
        by_name = {row.approach: row for row in TABLE1}
        assert by_name["Two-level (Mesos)"].interference == "pessimistic"
        assert by_name["Shared-state (Omega)"].interference == "optimistic"

    def test_render(self):
        rendered = format_table(table1_rows())
        assert "Shared-state (Omega)" in rendered
        assert "optimistic" in rendered

    def test_rows_are_dicts(self):
        assert all(isinstance(row, dict) for row in table1_rows())


class TestTable2:
    def test_constraint_row(self):
        by_property = {row.property: row for row in TABLE2}
        assert by_property["Sched. constraints"].lightweight == "ignored"
        assert by_property["Sched. constraints"].high_fidelity == "obeyed"

    def test_substitutions_marked(self):
        """Table 2 rows that used Google data must be labeled as
        synthetic-trace substitutions in this reproduction."""
        for row in TABLE2:
            if "actual data" in row.high_fidelity:
                assert "synthetic" in row.high_fidelity

    def test_render(self):
        assert "randomized first fit" in format_table(table2_rows())
        assert len(table2_rows()) == len(TABLE2)


class TestCli:
    def test_all_figures_have_commands(self):
        expected = {f"fig{i}" for i in list(range(2, 5)) + list(range(7, 17))}
        expected |= {"fig5a", "fig5b", "fig5c", "table1", "table2", "partitioned"}
        assert expected <= set(EXPERIMENTS)

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["fig8", "--scale", "0.1", "--hours", "1"])
        assert args.command == "fig8"
        assert args.scale == 0.1

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_command_runs(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "Shared-state (Omega)" in output

    def test_characterization_command_runs(self, capsys):
        assert main(["fig4", "--samples", "2000"]) == 0
        output = capsys.readouterr().out
        assert "cdf@1" in output

    def test_simulation_command_runs(self, capsys):
        assert main(["fig16", "--scale", "0.04", "--hours", "0.5"]) == 0
        output = capsys.readouterr().out
        assert "max-parallelism" in output

    def test_federation_command_runs(self, capsys):
        assert main([
            "federation", "--cells", "1,2", "--staleness", "0",
            "--intensities", "0", "--scale", "0.05", "--hours", "0.5",
        ]) == 0
        output = capsys.readouterr().out
        for column in ("cells", "staleness", "intensity", "wait_p99", "migrated"):
            assert column in output

    def test_federation_degenerate_gate_passes(self, capsys):
        assert main([
            "federation", "--degenerate-gate", "--scale", "0.05",
            "--hours", "0.5",
        ]) == 0
        assert "wait_batch" in capsys.readouterr().out

    def test_omega_smoke_with_timeline_trace(self, tmp_path, capsys):
        import json

        trace = tmp_path / "omega.jsonl"
        assert main([
            "omega", "--smoke", "--trace", str(trace),
            "--timeline-interval", "60",
        ]) == 0
        capsys.readouterr()
        assert main(["trace", str(trace), "--json"]) == 0
        rollup = json.loads(capsys.readouterr().out)
        assert rollup["timeline"]["cell"]
        assert rollup["percentile_rows"]
        (engine,) = rollup["engine_rows"]  # one per run.start
        assert rollup["runs"] == 1 and engine["events_processed"] > 0
        for row in rollup["percentile_rows"]:
            assert {"p50_s", "p90_s", "p99_s", "p999_s"} <= set(row)

    def test_timeline_interval_rejects_nonpositive(self, capsys):
        assert main(["omega", "--smoke", "--timeline-interval", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_timeline_interval_lands_on_every_other_grid(self, monkeypatch):
        """Every grid, the trace replays included, takes
        ``--timeline-interval`` on all of its configs."""

        class Reached(Exception):
            pass

        def execute_map(fn, points, **kwargs):
            raise Reached([getattr(c, "cell_config", c) for c, _ in points])

        monkeypatch.setattr(registry, "execute_map", execute_map)
        grids = [name for name, e in EXPERIMENTS.items() if e.points is not None]
        assert {*HIFI_REPLAYS, "fig15", "fig16"} < set(grids)
        for name in grids:
            flags = ["--timeline-interval", "60"]
            parameters = EXPERIMENTS[name].parameters
            if "scale" in parameters:
                flags += ["--scale", "0.05"]
            if "horizon" in parameters:
                flags += ["--hours", "0.1"]
            with pytest.raises(Reached) as reached:
                main([name, *flags])
            cells = reached.value.args[0]
            assert cells and all(c.timeline_interval == 60 for c in cells), name

    @pytest.mark.parametrize("command", HIFI_REPLAYS)
    def test_timeline_interval_on_a_trace_replay(self, tmp_path, capsys, command):
        """A trace replay writes ``timeline.*`` records at the interval,
        and sampling leaves its table as it was."""
        import json

        flags = [command, "--scale", "0.05", "--hours", "0.1"]
        assert main(flags) == 0
        rows = capsys.readouterr().out
        trace = tmp_path / "replay.jsonl"
        assert main([*flags, "--timeline-interval", "60", "--trace", str(trace)]) == 0
        assert capsys.readouterr().out == rows
        assert main(["trace", str(trace), "--json"]) == 0
        rollup = json.loads(capsys.readouterr().out)
        # Six samples per point: every 60 s of a 360 s horizon.
        assert len(rollup["timeline"]["cell"]) == 6 * rollup["runs"] > 0

    def test_trace_json_on_missing_file_exits_2(self, tmp_path):
        assert main(["trace", str(tmp_path / "absent.jsonl"), "--json"]) == 2


class TestBadArgumentsExitTwo:
    """One line on stderr, exit 2, and no point run — nor, unless the
    grid itself is what refuses the value, built."""

    @pytest.fixture(autouse=True)
    def no_simulation(self, monkeypatch):
        def stub(points):
            # The declaration's signature decides which flags it offers.
            @functools.wraps(points)
            def built(**params):
                raise AssertionError("points were built despite bad arguments")

            return built

        def ran(*args, **kwargs):
            raise AssertionError("a point ran despite bad arguments")

        monkeypatch.setattr(registry, "execute_map", ran)
        for name, experiment in list(EXPERIMENTS.items()):
            if experiment.points is not None:
                monkeypatch.setitem(
                    EXPERIMENTS,
                    name,
                    dataclasses.replace(experiment, points=stub(experiment.points)),
                )

    def _rejects(self, capsys, *argv, command="fig8"):
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("omega-sim: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--jobs", "-1"),
            ("--scale", "0"),
            ("--hours", "0"),
            ("--hours", "nan"),
            ("--hours", "inf"),
            ("--samples", "0"),
            ("--timeline-interval", "inf"),
        ],
        ids=" ".join,
    )
    def test_out_of_range_value(self, capsys, argv):
        # Only the characterization figures draw Monte Carlo samples.
        command = "fig4" if argv[0] == "--samples" else "fig8"
        assert argv[0] in self._rejects(capsys, *argv, command=command)

    @pytest.mark.parametrize(
        "argv",
        [
            ("resilience", "--intensities", "abc"),
            ("resilience", "--intensities", "-1"),
            ("conflict-avoidance", "--factors", ","),
            ("federation", "--cells", "0"),
            ("federation", "--staleness", "-5"),
            ("omega", "--cluster", "Z"),
            ("omega", "--rate-factor", "0"),
        ],
        ids=" ".join,
    )
    def test_declared_argument_out_of_range(self, capsys, argv):
        command, flag, _ = argv
        assert flag in self._rejects(capsys, *argv[1:], command=command)

    def test_output_directory_missing(self, capsys, tmp_path):
        target = tmp_path / "absent" / "rows.json"
        assert "does not exist" in self._rejects(capsys, "--output", str(target))

    def test_output_format_unsupported(self, capsys, tmp_path):
        target = tmp_path / "rows.txt"
        assert "use .json or .csv" in self._rejects(capsys, "--output", str(target))

    def test_trace_path_is_a_directory(self, capsys, tmp_path):
        err = self._rejects(capsys, "--trace", str(tmp_path))
        assert "--trace" in err and "is a directory" in err
        assert list(tmp_path.parent.glob(tmp_path.name + ".tmp")) == []

    @pytest.mark.skipif(os.geteuid() == 0, reason="root can write to a read-only directory")
    def test_output_directory_read_only(self, capsys, tmp_path):
        tmp_path.chmod(0o555)
        try:
            err = self._rejects(capsys, "--output", str(tmp_path / "rows.json"))
        finally:
            tmp_path.chmod(0o755)
        assert "not writable" in err


def test_a_one_machine_cell_cannot_be_partitioned(capsys):
    # At this scale cluster A has one machine, which the split cannot halve.
    assert main(["partitioned", "--scale", "0.00001", "--hours", "0.01"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("omega-sim: ") and err.count("\n") == 1
    assert "static partition" in err and "at least 2 machines; it has 1" in err
