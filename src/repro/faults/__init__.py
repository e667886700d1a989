"""Deterministic fault injection for the lightweight simulator (repro.faults).

The paper's evaluation exercises only the happy path: its simulators
"do not model machine failures (as these only generate a small load on
the scheduler)". This package grows the reproduction into the
robustness territory the authors skipped (see ``docs/RESILIENCE.md``):
:class:`~repro.faults.chaos.ChaosEngine` /
:class:`~repro.faults.chaos.FaultConfig` — seeded, named-stream fault
injection for every lightweight architecture: machine failures
(:class:`~repro.faults.chaos.FailureRepairProcess`), scheduler
crash/restart with in-flight-transaction loss, and commit-path latency
spikes and drops.

The paper's simulators never load this package: a world imports the
chaos engine only when its :class:`FaultConfig` injects something.
Everything here draws exclusively from :class:`repro.sim.random.
RandomStreams` streams, so fault timelines are a deterministic function
of the master seed (enforced by ``tests/test_source_invariants.py``
and the runtime determinism gate).
"""

from repro.faults.chaos import ChaosEngine, FaultConfig

# The checker lives in repro.invariants; the benchmark harness still
# imports it from here.
from repro.invariants import CellStateInvariantChecker

__all__ = [
    "ChaosEngine",
    "FaultConfig",
    "CellStateInvariantChecker",
]
