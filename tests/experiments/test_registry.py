"""The experiment registry: every declaration is well-formed, and a new
one needs no edit anywhere else."""

import dataclasses
import json

import pytest

from repro.analysis import determinism
from repro.experiments.cli import build_parser, main
from repro.experiments.common import LightweightConfig
from repro.experiments.registry import (
    DEGENERATE_GATE,
    EXPERIMENTS,
    Argument,
    Experiment,
    Gate,
    run,
)
from repro.hifi.trace import synthesize_trace
from repro.workload.clusters import CLUSTER_A
from tests.conftest import tiny_preset

GRIDS = [name for name, experiment in EXPERIMENTS.items() if experiment.points]

#: Shared flag -> the ``points`` / ``rows`` parameter that makes a command offer it.
SHARED_FLAGS = {
    "--scale": "scale",
    "--hours": "horizon",
    "--seed": "seed",
    "--samples": "samples",
}

#: The flags every grid offers, and no other command.
RUN_FLAGS = {
    "--trace",
    "--timeline-interval",
    "--jobs",
    "--checkpoint",
    "--resume",
    "--point-timeout",
}


def _takes(experiment: Experiment, name: str) -> bool:
    parameters = experiment.parameters
    return name in parameters or any(
        parameter.kind is parameter.VAR_KEYWORD for parameter in parameters.values()
    )


def _first_point_only(experiment: Experiment) -> Experiment:
    return dataclasses.replace(
        experiment, points=lambda **params: experiment.points(**params)[:1]
    )


class TestDeclarations:
    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_parser_builds_every_entry(self, name):
        args = build_parser().parse_args([name])
        assert args.command == name
        for argument in EXPERIMENTS[name].arguments:
            assert getattr(args, argument.dest) == argument.default

    @pytest.mark.parametrize("name", GRIDS)
    def test_grid_commands_get_jobs_and_recovery_flags(self, name):
        args = build_parser().parse_args(
            [name, "--jobs", "2", "--checkpoint", "d", "--resume"]
        )
        assert (args.jobs, args.checkpoint, args.resume) == (2, "d", True)

    @pytest.mark.parametrize("name", [n for n in EXPERIMENTS if n not in GRIDS])
    def test_rows_commands_refuse_jobs(self, capsys, name):
        """A ``rows`` command runs no grid, so it takes no ``--jobs``."""
        with pytest.raises(SystemExit) as exited:
            main([name, "--jobs", "2"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_offers_only_the_flags_it_reads(self, name):
        experiment = EXPERIMENTS[name]
        (subparsers,) = build_parser()._subparsers._group_actions
        offered = {
            flag
            for action in subparsers.choices[name]._actions
            for flag in action.option_strings
        }
        expected = {"-h", "--help", "--output"}
        expected |= {argument.flag for argument in experiment.arguments}
        expected |= {
            flag
            for flag, param in SHARED_FLAGS.items()
            if param in experiment.parameters
        }
        if experiment.plot is not None:
            expected.add("--plot")
        if experiment.points is not None:
            expected |= RUN_FLAGS
        assert offered == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ("table1", "--seed", "1"),
            ("fig8", "--samples", "5"),
            ("ablation-offer", "--scale", "0.1"),
            ("table1", "--trace", "t.jsonl"),
        ],
        ids=" ".join,
    )
    def test_flag_the_command_would_ignore_is_an_error(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main(list(argv))
        assert exited.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no trace file either

    @pytest.mark.parametrize(
        "experiment", [*EXPERIMENTS.values(), DEGENERATE_GATE], ids=lambda e: e.name
    )
    def test_overrides_and_arguments_name_real_parameters(self, experiment):
        named = dict(experiment.smoke or {})
        if experiment.gate is not None:
            named.update(experiment.gate.overrides)
        for argument in experiment.arguments:
            if argument.overrides is None and argument.variant is None:
                named[argument.param or argument.dest] = argument.default
        for name in named:
            assert _takes(experiment, name), f"{experiment.name}: {name}"

    def test_gates_belong_to_grids(self):
        for experiment in EXPERIMENTS.values():
            if experiment.gate is not None:
                assert experiment.points is not None, experiment.name

    @pytest.mark.parametrize(
        "name", [name for name, e in EXPERIMENTS.items() if e.plot is not None]
    )
    def test_plot_columns_exist_in_a_smoke_row(self, name):
        experiment = EXPERIMENTS[name]
        params = experiment.accepted({"horizon": 300.0, "seed": 0, "scale": 0.02})
        params.update(experiment.smoke or {})
        (row,) = run(_first_point_only(experiment), params)
        plot = experiment.plot
        assert {plot.x, plot.y} <= set(row)
        assert plot.series is None or plot.series in row

    def test_unknown_parameter_is_an_error_not_ignored(self):
        with pytest.raises(TypeError):
            run(EXPERIMENTS["fig8"], {"hours": 1.0})


class TestSimulationsAreGrids:
    """fig11-13 and fig15-16 used to hand-roll serial loops; as grids
    they fan out."""

    @pytest.fixture(scope="class")
    def trace(self):
        return synthesize_trace(tiny_preset(num_machines=50), horizon=900.0, seed=2)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("fig11", dict(t_jobs=(0.1, 10.0), t_tasks=(0.01,))),
            ("fig12", dict(t_jobs=(0.1, 10.0))),
            ("fig13", dict(t_jobs=(0.1,), scheduler_counts=(1, 3))),
            (
                "fig15",
                dict(
                    clusters=("D",),
                    policies=("max-parallelism", "global-cap"),
                    scale=0.3,
                    horizon=1800.0,
                ),
            ),
            ("fig16", dict(cluster="D", scale=0.3, horizon=1800.0)),
        ],
    )
    def test_jobs_2_rows_identical_to_serial(self, trace, name, params):
        params = dict(params, seed=0)
        if "trace" in EXPERIMENTS[name].parameters:
            params["trace"] = trace
        serial = run(EXPERIMENTS[name], params)
        parallel = run(EXPERIMENTS[name], params, jobs=2)
        assert len(serial) == 2
        assert json.dumps(serial) == json.dumps(parallel)
        assert [list(row) for row in serial] == [list(row) for row in parallel]


def _toy_points(replicas=2, horizon=600.0, seed=0, scale=0.02):
    return [
        (
            LightweightConfig(
                preset=CLUSTER_A.scaled(scale), horizon=horizon, seed=seed + index
            ),
            {"replica": index},
        )
        for index in range(replicas)
    ]


TOY = Experiment(
    "toy",
    "a throwaway grid",
    points=_toy_points,
    arguments=(
        Argument("--replicas", "how many seeds to run", default="2", parse=int),
        Argument("--smoke", "one replica", overrides={"replicas": 1}),
    ),
    gate=Gate({"replicas": 2}),
)


class TestNewEntryNeedsNoOtherEdit:
    @pytest.fixture(autouse=True)
    def registered(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "toy", TOY)

    ARGV = ["toy", "--scale", "0.02", "--hours", "0.1"]

    def test_parser_smoke_manifest_and_envelope(self, tmp_path, capsys):
        checkpoint, output = tmp_path / "ck", tmp_path / "toy.json"
        argv = self.ARGV + [
            "--smoke", "--jobs", "2", "--checkpoint", str(checkpoint),
            "--output", str(output),
        ]
        assert main(argv) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0].split()[0] == "replica" and len(table) == 3  # one row
        declared = {"scale": 0.02, "hours": 0.1, "replicas": "2", "smoke": True}
        manifest = json.loads((checkpoint / "manifest.json").read_text())
        assert manifest["experiment"] == "toy"
        assert manifest["parameters"] == declared
        envelope = json.loads(output.read_text())
        assert envelope["parameters"] == {**declared, "seed": 0}

    def test_declared_argument_is_validated(self, capsys):
        assert main(self.ARGV + ["--replicas", "many"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("omega-sim: --replicas ") and err.count("\n") == 1

    def test_gate(self, capsys):
        argv = ["--experiment", "toy", "--scale", "0.02", "--hours", "0.1"]
        assert determinism.main(argv) == 0
        assert "IDENTICAL" in capsys.readouterr().out
        assert determinism.main(argv + ["--compare-jobs", "2"]) == 0
        assert "IDENTICAL" in capsys.readouterr().out


class TestGateMatrix:
    def test_no_argument_run_is_the_sixteen_ci_checks(self):
        gates = {
            name: experiment.gate
            for name, experiment in EXPERIMENTS.items()
            if experiment.gate is not None
        }
        labels = [
            determinism._label(check)
            for check in determinism._declared_checks(gates, "artifacts")
        ]
        assert labels == [
            "--experiment fig8",
            "--experiment fig8 --compare-jobs 4",
            "--experiment fig8 --timeline-interval 120.0",
            "--experiment fig8 --timeline-interval 120.0 --compare-jobs 4",
            "--experiment fig8 --timeline-interval 120.0 --kill-resume "
            "--artifacts-dir artifacts/fig8",
            "--experiment fig14",
            "--experiment fig14 --compare-jobs 2",
            "--experiment fig14 --timeline-interval 120.0",
            "--experiment fig14 --timeline-interval 120.0 --compare-jobs 2",
            "--experiment resilience",
            "--experiment resilience --compare-jobs 4",
            "--experiment conflict-avoidance",
            "--experiment conflict-avoidance --compare-jobs 2",
            "--experiment federation",
            "--experiment federation --compare-jobs 2",
            "--experiment federation --kill-resume "
            "--artifacts-dir artifacts/federation",
        ]

    def test_mode_flags_need_an_experiment(self, capsys):
        assert determinism.main(["--compare-jobs", "2"]) == 2
        assert "need --experiment" in capsys.readouterr().err
