"""The simulator does not import the lint engine.

``repro.analysis`` checks the simulator's source; the simulator itself
must run without it. A fresh interpreter imports the two entry points
every run goes through and must not have loaded any ``repro.analysis``
module along the way.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import repro.experiments.common
import repro.hifi.replay
print("\\n".join(sorted(name for name in sys.modules if name.startswith("repro."))))
"""


def test_simulator_imports_no_analysis_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "repro.hifi.replay" in loaded
    assert [name for name in loaded if name.startswith("repro.analysis")] == []
