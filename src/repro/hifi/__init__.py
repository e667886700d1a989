"""The high-fidelity simulator (paper section 5).

The paper's high-fidelity simulator "replays historic workload traces
from Google production clusters, and reuses much of the Google
production scheduler's code"; it "respects task placement constraints
[and] uses the same algorithms as the production version", supports
only the Omega architecture, and runs much slower than the lightweight
simulator (Table 2).

This package is the reproduction's analog:

* :mod:`repro.hifi.constraints` — machine attributes and placement
  constraints (obeyed here, ignored in the lightweight simulator);
* :mod:`repro.hifi.placement` — a deterministic, constraint-aware
  scoring placement algorithm standing in for the proprietary
  production algorithm (DESIGN.md, "Substitutions");
* :mod:`repro.hifi.trace` — the in-memory trace the replay takes, and a
  deterministic synthesizer standing in for the production traces;
* :mod:`repro.hifi.replay` — trace-driven Omega simulation.
"""

from repro.hifi.constraints import AttributeIndex, Constraint, ConstraintOp
from repro.hifi.placement import ScoringPlacer
from repro.hifi.replay import HighFidelityConfig, run_hifi
from repro.hifi.trace import Trace, TraceJob, TraceMachine, synthesize_trace

__all__ = [
    "Constraint",
    "ConstraintOp",
    "AttributeIndex",
    "ScoringPlacer",
    "Trace",
    "TraceJob",
    "TraceMachine",
    "synthesize_trace",
    "HighFidelityConfig",
    "run_hifi",
]
