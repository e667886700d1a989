"""The paper's simulators load no optional layer.

``repro.analysis`` checks the simulator's source, ``repro.faults``
injects faults, ``repro.federation`` routes between cells and
``repro.recovery`` checkpoints sweeps: the paper's two simulators must
run without any of them. A fresh interpreter builds and runs one
fault-free lightweight simulation and one high-fidelity replay and
must not have loaded a module of those layers (nor of the deleted
``repro.perf``) along the way.

``python tests/test_import_direction.py`` prints the "core lines": the
lines of every ``repro`` module that interpreter loaded.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

OPTIONAL_LAYERS = ("analysis", "faults", "federation", "recovery", "perf")

PROBE = """
import sys
from repro.experiments.common import LightweightConfig, LightweightSimulation
from repro.hifi.replay import HighFidelityConfig, HighFidelitySimulation
from repro.hifi.trace import synthesize_trace
from repro.workload.clusters import CLUSTER_B

preset = CLUSTER_B.scaled(0.02)
LightweightSimulation(LightweightConfig(preset=preset, horizon=600.0)).run()
trace = synthesize_trace(preset, horizon=600.0, seed=0)
HighFidelitySimulation(HighFidelityConfig(trace=trace)).run()
for name, module in sorted(sys.modules.items()):
    if name == "repro" or name.startswith("repro."):
        print(name, getattr(module, "__file__", None) or "-")
"""


@functools.lru_cache(maxsize=None)
def loaded_modules() -> dict[str, str]:
    """``repro`` module name -> source file, as the probe loaded them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    lines = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    return dict(line.split(" ", 1) for line in lines)


def core_lines() -> int:
    total = 0
    for path in loaded_modules().values():
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


if __name__ == "__main__":
    print(f"core lines: {core_lines()} in {len(loaded_modules())} modules")
