"""Cell-state invariant checking.

The shared cell state's documented invariants (see
:class:`repro.core.cellstate.CellState`) are what the whole optimistic
concurrency argument rests on — "all must agree on ... a common notion
of whether a machine is full". Fault injection stresses every mutation
path at once (commits, releases, evictions, capacity withholding), so
:class:`CellStateInvariantChecker` re-verifies the invariants from the
outside: continuously during a run (installed on the simulator clock)
or once as a post-run gate. Every :class:`repro.world.World` owns one
(``World.invariant_checker``); CI runs it over a fault-injected
scenario and fails the build on any violation.

Checked per cell:

* free resources are non-negative and never exceed machine capacity
  (within accounting EPSILON), and are never NaN;
* the aggregate used totals agree with ``capacity - sum(free)``;
* per-machine sequence numbers and the global version never decrease
  between checks.

Checked against the allocation ledger, when one is in play:

* no orphaned records (a registered allocation with no tasks left);
* per machine, the ledger's registered resources fit inside what the
  cell state says is actually allocated (ledger/allocation agreement).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.cellstate import CellState
from repro.core.preemption import AllocationLedger
from repro.sim import Simulator

#: Accounting slack for aggregate float comparisons. Looser than the
#: cell state's per-operation EPSILON because totals accumulate dust
#: over hundreds of thousands of claim/release pairs.
TOLERANCE = 1e-6


class InvariantViolation(RuntimeError):
    """One or more cell-state invariants do not hold."""

    def __init__(self, violations: Sequence[str]) -> None:
        self.violations = list(violations)
        lines = "\n  ".join(self.violations)
        super().__init__(
            f"{len(self.violations)} cell-state invariant violation(s):\n  {lines}"
        )


class CellStateInvariantChecker:
    """Re-verifies cell-state invariants during or after a run.

    ``raise_on_violation=True`` makes :meth:`check` raise
    :class:`InvariantViolation` (the CI gate mode); otherwise
    violations accumulate in :attr:`violations` for inspection.
    """

    def __init__(
        self,
        states: Sequence[CellState],
        ledger: AllocationLedger | None = None,
        raise_on_violation: bool = True,
        tolerance: float = TOLERANCE,
    ) -> None:
        if tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {tolerance}")
        self.states = list(states)
        if not self.states:
            raise ValueError("need at least one cell state to check")
        self.ledger = ledger
        self.raise_on_violation = raise_on_violation
        self.tolerance = tolerance
        self.checks_run = 0
        self.violations: list[str] = []
        self._last_seq: list[np.ndarray | None] = [None] * len(self.states)
        self._last_version: list[int] = [-1] * len(self.states)

    # ------------------------------------------------------------------
    def check(self, now: float = 0.0) -> list[str]:
        """Run every invariant once; returns (and records) violations."""
        found: list[str] = []
        for index, state in enumerate(self.states):
            found.extend(self._check_state(index, state, now))
        if self.ledger is not None:
            found.extend(self._check_ledger(now))
        self.checks_run += 1
        self.violations.extend(found)
        if found and self.raise_on_violation:
            raise InvariantViolation(found)
        return found

    def install(
        self, sim: Simulator, interval: float, horizon: float | None = None
    ) -> None:
        """Check continuously, every ``interval`` simulated seconds."""
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        sim.every(interval, self._tick, sim, until=horizon)

    def _tick(self, sim: Simulator) -> None:
        self.check(sim.now)

    # ------------------------------------------------------------------
    def _check_state(self, index: int, state: CellState, now: float) -> list[str]:
        found: list[str] = []
        tol = self.tolerance
        prefix = f"t={now:.3f} cell {index}"
        for kind, free, capacity in (
            ("cpu", state.free_cpu, state.cell.cpu_capacity),
            ("mem", state.free_mem, state.cell.mem_capacity),
        ):
            nan = np.flatnonzero(np.isnan(free))
            if nan.size:
                found.append(f"{prefix}: NaN free {kind} on machines {nan.tolist()}")
                continue
            negative = np.flatnonzero(free < -tol)
            if negative.size:
                found.append(
                    f"{prefix}: negative free {kind} on machines "
                    f"{negative.tolist()} (min {float(free.min())})"
                )
            over = np.flatnonzero(free > capacity + tol)
            if over.size:
                found.append(
                    f"{prefix}: free {kind} exceeds capacity on machines "
                    f"{over.tolist()}"
                )
        # Aggregate agreement: used == capacity - free (within dust
        # proportional to cell size).
        slack = tol * max(1.0, state.cell.total_cpu)
        derived_cpu = state.cell.total_cpu - float(state.free_cpu.sum())
        if abs(derived_cpu - state.used_cpu) > slack:
            found.append(
                f"{prefix}: used cpu {state.used_cpu} disagrees with "
                f"capacity - free = {derived_cpu}"
            )
        slack = tol * max(1.0, state.cell.total_mem)
        derived_mem = state.cell.total_mem - float(state.free_mem.sum())
        if abs(derived_mem - state.used_mem) > slack:
            found.append(
                f"{prefix}: used mem {state.used_mem} disagrees with "
                f"capacity - free = {derived_mem}"
            )
        # Monotonicity between checks.
        previous = self._last_seq[index]
        if previous is not None:
            regressed = np.flatnonzero(state.seq < previous)
            if regressed.size:
                found.append(
                    f"{prefix}: sequence numbers decreased on machines "
                    f"{regressed.tolist()}"
                )
        self._last_seq[index] = state.seq.copy()
        if state.version < self._last_version[index]:
            found.append(
                f"{prefix}: version regressed from {self._last_version[index]} "
                f"to {state.version}"
            )
        self._last_version[index] = state.version
        return found

    def _check_ledger(self, now: float) -> list[str]:
        found: list[str] = []
        ledger = self.ledger
        assert ledger is not None
        state = ledger.state
        tol = self.tolerance
        prefix = f"t={now:.3f} ledger"
        for machine in sorted(ledger._by_machine):
            ledger_cpu = 0.0
            ledger_mem = 0.0
            for record in sorted(
                ledger._by_machine[machine].values(), key=lambda r: r.record_id
            ):
                if record.count < 1:
                    found.append(
                        f"{prefix}: orphaned record {record.record_id} on "
                        f"machine {machine} (count={record.count})"
                    )
                    continue
                ledger_cpu += record.total_cpu
                ledger_mem += record.total_mem
            allocated_cpu = float(
                state.cell.cpu_capacity[machine] - state.free_cpu[machine]
            )
            allocated_mem = float(
                state.cell.mem_capacity[machine] - state.free_mem[machine]
            )
            if ledger_cpu > allocated_cpu + tol or ledger_mem > allocated_mem + tol:
                found.append(
                    f"{prefix}: machine {machine} registers "
                    f"({ledger_cpu} cpu, {ledger_mem} mem) in the ledger but "
                    f"the cell state only has ({allocated_cpu} cpu, "
                    f"{allocated_mem} mem) allocated"
                )
        return found
