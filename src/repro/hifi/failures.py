"""Machine failures and repairs.

The paper's high-fidelity simulator "does not model machine failures
(as these only generate a small load on the scheduler)" — but failures
are why the workloads look the way they do: service jobs spread across
failure domains (section 2.1), and gang scheduling "is only rarely used
due to the expectation of machine failures, which disrupt jobs anyway"
(section 6 footnote).

This module implements what the paper skipped, as an extension.
:class:`FailureRepairProcess` is the one Poisson failure/repair
implementation for both simulators: machines fail at a cell-wide rate
of ``up_machines / mtbf``; a failing machine's tasks are evicted through
the pluggable ``evict`` callback, whatever capacity is then free is
withheld from the shared cell state (via the ordinary
:meth:`~repro.core.cellstate.CellState.claim` path, so every cell-state
invariant keeps holding), and a repair after ``repair_time`` seconds
releases it again. The lightweight chaos engine
(:mod:`repro.faults.chaos`) drives it without a ledger, letting running
tasks ride out the failure. :class:`MachineFailureInjector` binds it to
the high-fidelity stack's allocation ledger, so a failing machine's
tasks are evicted through the ledger (their owners reschedule them,
exactly like preemption victims). The
``tests/hifi/test_failures.py::TestPaperClaim`` test verifies the
paper's justification — failures at realistic MTBFs add only a small
scheduler load.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.cellstate import CellState
from repro.core.preemption import AllocationLedger
from repro.sim import Simulator

#: Evicts every task on a machine, returning the evicted task count
#: (e.g. ``AllocationLedger.evict_machine``).
EvictFn = Callable[[int], int]

#: Observer hooks: ``on_fail(machine, killed)`` / ``on_repair(machine)``.
FailHook = Callable[[int, int], None]
RepairHook = Callable[[int], None]


class FailureRepairProcess:
    """Poisson machine failures with repairs over one shared cell state.

    ``rng`` must be a named :class:`repro.sim.random.RandomStreams`
    stream (or a generator derived via ``derive_seed``) so the fault
    timeline is a deterministic function of the master seed — never a
    freshly constructed or wall-clock-seeded generator (checked by
    ``tests/test_source_invariants.py``).
    """

    def __init__(
        self,
        sim: Simulator,
        state: CellState,
        rng: np.random.Generator,
        mtbf: float,
        repair_time: float = 1800.0,
        evict: EvictFn | None = None,
        on_fail: FailHook | None = None,
        on_repair: RepairHook | None = None,
    ) -> None:
        """``mtbf`` is the mean time between failures *per machine*
        (seconds); the cell-wide failure rate is ``machines / mtbf``.
        ``repair_time`` is how long a failed machine stays down.
        """
        if mtbf <= 0:
            raise ValueError(f"mtbf must be positive, got {mtbf}")
        if repair_time <= 0:
            raise ValueError(f"repair_time must be positive, got {repair_time}")
        self.sim = sim
        self.state = state
        self.rng = rng
        self.mtbf = mtbf
        self.repair_time = repair_time
        self._evict = evict
        self._on_fail = on_fail
        self._on_repair = on_repair
        self._down: dict[int, tuple[float, float]] = {}  # machine -> withheld cpu/mem
        self.failures = 0
        self.tasks_killed = 0
        self._horizon: float | None = None

    # ------------------------------------------------------------------
    @property
    def machines_down(self) -> int:
        return len(self._down)

    def is_down(self, machine: int) -> bool:
        return machine in self._down

    def start(self, horizon: float | None = None) -> None:
        """Begin injecting failures (first gap drawn immediately)."""
        self._horizon = horizon
        self._schedule_next()

    def _cell_rate(self) -> float:
        up_machines = self.state.num_machines - len(self._down)
        return max(up_machines, 1) / self.mtbf

    def _schedule_next(self) -> None:
        gap = self.rng.exponential(1.0 / self._cell_rate())
        when = self.sim.now + gap
        if self._horizon is None or when <= self._horizon:
            self.sim.at(when, self._fail_random_machine)

    # ------------------------------------------------------------------
    def _fail_random_machine(self) -> None:
        up = [m for m in range(self.state.num_machines) if m not in self._down]
        if up:
            self.fail(int(self.rng.choice(up)))
        self._schedule_next()

    def fail(self, machine: int) -> int:
        """Fail ``machine`` now: kill its tasks, withhold its capacity.

        Returns the number of tasks killed. Failing a machine that is
        already down is a no-op.
        """
        if machine in self._down:
            return 0
        self.failures += 1
        killed = self._evict(machine) if self._evict is not None else 0
        self.tasks_killed += killed
        # Withhold whatever is free now (everything, after the eviction,
        # except resources of unevictable allocations, which ride out
        # the failure as a modeling simplification).
        withheld_cpu = float(self.state.free_cpu[machine])
        withheld_mem = float(self.state.free_mem[machine])
        if withheld_cpu > 0 or withheld_mem > 0:
            self.state.claim(machine, withheld_cpu, withheld_mem, 1)
        self._down[machine] = (withheld_cpu, withheld_mem)
        self.sim.after(self.repair_time, self.repair, machine)
        if self._on_fail is not None:
            self._on_fail(machine, killed)
        return killed

    def repair(self, machine: int) -> None:
        """Bring a failed machine back (idempotent)."""
        withheld = self._down.pop(machine, None)
        if withheld is None:
            return
        withheld_cpu, withheld_mem = withheld
        if withheld_cpu > 0 or withheld_mem > 0:
            self.state.release(machine, withheld_cpu, withheld_mem, 1)
        if self._on_repair is not None:
            self._on_repair(machine)


class MachineFailureInjector(FailureRepairProcess):
    """Poisson machine failures with repairs over shared cell state,
    evicting victims through the allocation ledger."""

    def __init__(
        self,
        sim: Simulator,
        state: CellState,
        ledger: AllocationLedger,
        rng: np.random.Generator,
        mtbf: float,
        repair_time: float = 1800.0,
    ) -> None:
        """``mtbf`` is the mean time between failures *per machine*
        (seconds); the cell-wide failure rate is ``machines / mtbf``.
        ``repair_time`` is how long a failed machine stays down.
        """
        super().__init__(
            sim,
            state,
            rng,
            mtbf=mtbf,
            repair_time=repair_time,
            evict=ledger.evict_machine,
        )
        self.ledger = ledger
