"""Deterministic fault injection and resilience checking (repro.faults).

The paper's evaluation exercises only the happy path: its simulators
"do not model machine failures (as these only generate a small load on
the scheduler)" and its Omega schedulers retry conflicted transactions
immediately and forever. This package grows the reproduction into the
robustness territory the authors skipped (see ``docs/RESILIENCE.md``):

* :class:`~repro.faults.processes.FailureRepairProcess` — the one
  Poisson machine failure/repair implementation, shared by the
  high-fidelity injector (:mod:`repro.hifi.failures`) and the
  lightweight chaos engine;
* :class:`~repro.faults.chaos.ChaosEngine` /
  :class:`~repro.faults.chaos.FaultConfig` — seeded, named-stream
  fault injection for every lightweight architecture: machine failures,
  scheduler crash/restart with in-flight-transaction loss, and
  commit-path latency spikes and drops;
* :mod:`~repro.faults.retry` — pluggable Omega conflict-retry policies
  (immediate, capped, exponential backoff with deterministic jitter,
  and starvation escalation to incremental commits per paper section
  3.6);
* :class:`~repro.faults.invariants.CellStateInvariantChecker` — the
  cell-state safety net that runs continuously in simulation or as a
  post-run CI gate.

Everything here draws exclusively from :class:`repro.sim.random.
RandomStreams` streams, so fault timelines are a deterministic function
of the master seed (enforced by ``omega-lint`` rule FIJ001 and the
runtime determinism gate).
"""

from repro.faults.chaos import ChaosEngine, FaultConfig
from repro.faults.invariants import CellStateInvariantChecker, InvariantViolation
from repro.faults.processes import FailureRepairProcess
from repro.faults.retry import (
    RETRY_POLICIES,
    CappedRetryPolicy,
    ExponentialBackoffPolicy,
    ImmediateRetryPolicy,
    RetryAction,
    RetryDecision,
    RetryPolicy,
    RetryPolicyConfig,
    StarvationEscalationPolicy,
)

__all__ = [
    "ChaosEngine",
    "FaultConfig",
    "FailureRepairProcess",
    "CellStateInvariantChecker",
    "InvariantViolation",
    "RetryAction",
    "RetryDecision",
    "RetryPolicy",
    "RetryPolicyConfig",
    "ImmediateRetryPolicy",
    "CappedRetryPolicy",
    "ExponentialBackoffPolicy",
    "StarvationEscalationPolicy",
    "RETRY_POLICIES",
]
