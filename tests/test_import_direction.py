"""The paper's simulators load no optional layer, and a command loads
only what it runs.

``repro.analysis`` gates determinism, ``repro.faults``
injects faults, ``repro.federation`` routes between cells and
``repro.recovery`` checkpoints sweeps: the paper's two simulators must
run without any of them. A fresh interpreter builds and runs one
fault-free lightweight simulation and one high-fidelity replay and
must not have loaded a module of those layers (nor of the deleted
``repro.perf``) along the way.

Through ``omega-sim`` a run still loads the registry and the sweep
runner, but not the determinism gate, no federation machinery and
no trace consumer: one fresh interpreter per architecture runs its command at
smoke scale and must not have loaded any module of
:data:`NOT_IN_A_RUN`. The trace consumers load their own module.

``python tests/test_import_direction.py`` prints the "core lines" (the
lines of every ``repro`` module the library probe loaded) and the lines
``omega-sim omega --smoke`` loads.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

OPTIONAL_LAYERS = ("analysis", "faults", "federation", "recovery", "perf")

LIBRARY_PROBE = """
from repro.experiments.common import LightweightConfig, LightweightSimulation
from repro.hifi.replay import HighFidelityConfig, HighFidelitySimulation
from repro.hifi.trace import synthesize_trace
from repro.workload.clusters import CLUSTER_B

preset = CLUSTER_B.scaled(0.02)
LightweightSimulation(LightweightConfig(preset=preset, horizon=600.0)).run()
trace = synthesize_trace(preset, horizon=600.0, seed=0)
HighFidelitySimulation(HighFidelityConfig(trace=trace)).run()
"""

CLI_PROBE = """
import contextlib, io
from repro.experiments.cli import main

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
if code != 0:
    sys.exit(f"omega-sim {' '.join(sys.argv[1:])} exited {code}")
"""

LIST_MODULES = """
for name, module in sorted(sys.modules.items()):
    if name == "repro" or name.startswith("repro."):
        print(name, getattr(module, "__file__", None) or "-")
"""

#: One command per architecture, at smoke scale: Omega, monolithic,
#: partitioned, Mesos and the high-fidelity replay.
ARCHITECTURE_COMMANDS = {
    "omega": ("omega", "--smoke"),
    "monolithic": ("fig5a", "--scale", "0.05", "--hours", "0.1"),
    "partitioned": ("partitioned", "--scale", "0.05", "--hours", "0.1"),
    "mesos": ("fig7", "--scale", "0.05", "--hours", "0.1"),
    "hifi": ("fig14", "--scale", "0.05", "--hours", "0.1"),
}

#: Modules a simulation run through ``omega-sim`` never needs: the
#: determinism gate, the federation machinery, the MapReduce case study
#: (loaded only by a config that names a policy) and the trace consumers.
NOT_IN_A_RUN = tuple(
    f"repro.{layer}.{name}"
    for layer, names in (
        ("analysis", ("determinism",)),
        ("federation", ("harness", "router", "cells", "chaos")),
        ("mapreduce", ("model", "policies", "scheduler")),
        ("obs", ("summary", "perfetto")),
    )
    for name in names
)


@functools.lru_cache(maxsize=None)
def loaded_modules(*argv: str) -> dict[str, str]:
    """``repro`` module name -> source file, as a fresh interpreter
    loaded them: the library probe with no ``argv``, else
    ``omega-sim argv``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = "import sys\n" + (CLI_PROBE if argv else LIBRARY_PROBE) + LIST_MODULES
    lines = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    return dict(line.split(" ", 1) for line in lines)


def source_lines(loaded: dict[str, str]) -> int:
    total = 0
    for path in loaded.values():
        if path != "-":
            with open(path, encoding="utf-8") as source:
                total += sum(1 for _ in source)
    return total


def test_simulator_imports_no_analysis_module():
    loaded = loaded_modules()
    assert "repro.hifi.replay" in loaded
    assert [name for name in loaded if name.startswith("repro.analysis")] == []


def test_paper_simulators_load_no_optional_layer():
    loaded = loaded_modules()
    assert {"repro.experiments.common", "repro.hifi.replay", "repro.world"} <= set(loaded)
    crossing = [
        name for name in loaded if name.partition(".")[2].split(".")[0] in OPTIONAL_LAYERS
    ]
    assert crossing == []


@pytest.mark.parametrize("architecture", sorted(ARCHITECTURE_COMMANDS))
def test_a_command_loads_only_what_it_runs(architecture):
    loaded = loaded_modules(*ARCHITECTURE_COMMANDS[architecture])
    assert "repro.experiments.registry" in loaded
    assert [name for name in NOT_IN_A_RUN if name in loaded] == []


@pytest.mark.parametrize(
    "command, module",
    [("trace", "summary"), ("perfetto", "perfetto")],
)
def test_a_trace_consumer_loads_its_own_module(tmp_path, command, module):
    trace = tmp_path / "run.jsonl"
    trace.write_text(
        '{"name":"run.start","t":0.0,"fields":{"trace_version":2}}\n', encoding="utf-8"
    )
    argv = [command, str(trace)]
    if command == "perfetto":
        argv += ["--output", str(tmp_path / "out")]
    assert f"repro.obs.{module}" in loaded_modules(*argv)


if __name__ == "__main__":
    core = loaded_modules()
    command = loaded_modules(*ARCHITECTURE_COMMANDS["omega"])
    print(
        f"core lines: {source_lines(core)} in {len(core)} modules; "
        f"omega-sim omega --smoke lines: {source_lines(command)} in {len(command)} modules"
    )
