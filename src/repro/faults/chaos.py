"""The seeded chaos engine for the lightweight simulator.

Injects three fault classes into any of the section 4 architectures
(monolithic, partitioned, Mesos, Omega):

* **machine failure/repair** — a Poisson process per cell
  (:class:`FailureRepairProcess`) withholding a failed machine's free
  capacity until repair, while its running tasks ride out the failure;
* **scheduler crash/restart** — a Poisson process per scheduler; a
  crash loses the in-flight transaction (the job's private snapshot and
  pending commit are discarded, the job requeues at the front) and the
  scheduler serves nothing until it restarts;
* **commit-path faults** — per-attempt latency spikes (the scheduler
  stays busy longer, widening the conflict window) and commit drops
  (the placement work is lost and the attempt resolves as a conflict).

Every draw comes from a named :class:`repro.sim.random.RandomStreams`
stream — one per cell (``machine-failures.{i}``) and per scheduler
(``crash.{name}``, ``commit.{name}``) — so each fault timeline is a
deterministic function of the master seed and independent of event
interleaving (``tests/test_source_invariants.py`` rejects anything else). All
injections emit ``fault.*`` trace events for ``omega-sim trace``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.cellstate import CellState
from repro.metrics import MetricsCollector
from repro.sim import RandomStreams, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.schedulers.base import QueueScheduler
    from repro.workload.job import Job

#: How long a failed machine stays down, seconds.
MACHINE_REPAIR_TIME = 1800.0
#: How long a crashed scheduler stays down, seconds.
CRASH_RESTART_TIME = 60.0
#: Mean of the (exponential) commit latency spike, seconds.
COMMIT_DELAY_MEAN = 2.0

#: Observer hook: ``on_fail(machine)`` / ``on_repair(machine)``.
MachineHook = Callable[[int], None]


def check_mtbf(name: str, value: float | None) -> None:
    """Refuse a mean time between faults that is not None and not a
    finite positive number of seconds."""
    if value is not None and not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def check_intensity(intensity: float) -> None:
    """Refuse a fault intensity that is not finite and >= 0."""
    if not (math.isfinite(intensity) and intensity >= 0):
        raise ValueError(f"intensity must be finite and >= 0, got {intensity}")


class FailureRepairProcess:
    """Poisson machine failures with repairs over one shared cell state.

    Machines fail at a cell-wide rate of ``up_machines / mtbf``. A
    failing machine's free capacity is withheld from the cell state
    through the ordinary :meth:`~repro.core.cellstate.CellState.claim`
    path (so every cell-state invariant keeps holding) and released by
    a repair ``repair_time`` seconds later; its running tasks ride out
    the failure.

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
        repair_time: float = MACHINE_REPAIR_TIME,
        on_fail: MachineHook | None = None,
        on_repair: MachineHook | None = None,
    ) -> None:
        """``mtbf`` is the mean time between failures *per machine*
        (seconds); ``repair_time`` is how long a failed machine stays
        down."""
        check_mtbf("mtbf", mtbf)
        if not repair_time > 0:
            raise ValueError(f"repair_time must be positive, got {repair_time}")
        self.sim = sim
        self.state = state
        self.rng = rng
        self.mtbf = mtbf
        self.repair_time = repair_time
        self._on_fail = on_fail
        self._on_repair = on_repair
        self._down: dict[int, tuple[float, float]] = {}  # machine -> withheld cpu/mem
        self._horizon: float | None = None

    @property
    def machines_down(self) -> int:
        return len(self._down)

    def is_down(self, machine: int) -> bool:
        return machine in self._down

    def start(self, horizon: float | None = None) -> None:
        """Begin injecting failures (first gap drawn immediately)."""
        self._horizon = horizon
        self._schedule_next()

    def _schedule_next(self) -> None:
        up_machines = self.state.num_machines - len(self._down)
        gap = self.rng.exponential(1.0 / (max(up_machines, 1) / self.mtbf))
        when = self.sim.now + gap
        if self._horizon is None or when <= self._horizon:
            self.sim.at(when, self._fail_random_machine)

    def _fail_random_machine(self) -> None:
        up = [m for m in range(self.state.num_machines) if m not in self._down]
        if up:
            self.fail(int(self.rng.choice(up)))
        self._schedule_next()

    def fail(self, machine: int) -> None:
        """Fail ``machine`` now, withholding its free capacity; failing
        a machine that is already down is a no-op."""
        if machine in self._down:
            return
        withheld_cpu = float(self.state.free_cpu[machine])
        withheld_mem = float(self.state.free_mem[machine])
        if withheld_cpu > 0 or withheld_mem > 0:
            self.state.claim(machine, withheld_cpu, withheld_mem, 1)
        self._down[machine] = (withheld_cpu, withheld_mem)
        self.sim.after(self.repair_time, self.repair, machine)
        if self._on_fail is not None:
            self._on_fail(machine)

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


@dataclass(frozen=True)
class FaultConfig:
    """What to inject and how hard. Frozen and primitive-only so sweep
    points stay picklable across ``--jobs N`` worker processes.

    The default config injects nothing (:attr:`enabled` is False);
    experiments define a baseline and scale it with :meth:`scaled`.
    Repair and restart times and the commit spike's mean are the
    module constants :data:`MACHINE_REPAIR_TIME`,
    :data:`CRASH_RESTART_TIME` and :data:`COMMIT_DELAY_MEAN`.
    """

    #: Per-machine mean time between failures (seconds); None disables
    #: machine failures.
    machine_mtbf: float | None = None
    #: Per-scheduler mean time between crashes (seconds); None disables
    #: scheduler crashes.
    crash_mtbf: float | None = None
    #: Probability that one scheduling attempt's commit suffers a
    #: latency spike / is dropped outright.
    commit_delay_prob: float = 0.0
    commit_drop_prob: float = 0.0

    def __post_init__(self) -> None:
        check_mtbf("machine_mtbf", self.machine_mtbf)
        check_mtbf("crash_mtbf", self.crash_mtbf)
        for name in ("commit_delay_prob", "commit_drop_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @property
    def enabled(self) -> bool:
        """Whether this config injects any fault at all."""
        return (
            self.machine_mtbf is not None
            or self.crash_mtbf is not None
            or self.commit_delay_prob > 0
            or self.commit_drop_prob > 0
        )

    @property
    def wants_commit_faults(self) -> bool:
        return self.commit_delay_prob > 0 or self.commit_drop_prob > 0

    def scaled(self, intensity: float) -> "FaultConfig":
        """This config with every fault rate multiplied by ``intensity``.

        Intensity 0 returns a fully disabled config (so zero-fault sweep
        rows run the exact fault-free code path); intensity 1 is this
        config unchanged; intensity k divides the MTBFs by k and
        multiplies the commit-fault probabilities by k (clamped to 1).
        """
        check_intensity(intensity)
        if intensity == 0:
            return FaultConfig()
        return replace(
            self,
            machine_mtbf=(
                self.machine_mtbf / intensity if self.machine_mtbf is not None else None
            ),
            crash_mtbf=(
                self.crash_mtbf / intensity if self.crash_mtbf is not None else None
            ),
            commit_delay_prob=min(1.0, self.commit_delay_prob * intensity),
            commit_drop_prob=min(1.0, self.commit_drop_prob * intensity),
        )


class ChaosEngine:
    """Installs and drives the configured fault processes for one run.

    ``streams`` should be a dedicated fork of the run's master streams
    (``streams.fork("chaos")``): every fault class then draws from its
    own named child stream, so adding or removing one fault class never
    perturbs the timelines of the others.
    """

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        config: FaultConfig,
        metrics: MetricsCollector,
    ) -> None:
        self.sim = sim
        self.config = config
        self.metrics = metrics
        self._streams = streams
        self.processes: list[FailureRepairProcess] = []
        self._commit_rngs: dict[str, object] = {}
        self._horizon: float | None = None

    # ------------------------------------------------------------------
    @property
    def machines_down(self) -> int:
        """Machines currently failed and awaiting repair, across cells."""
        return sum(process.machines_down for process in self.processes)

    # ------------------------------------------------------------------
    def install(
        self,
        states: Sequence[CellState],
        schedulers: Sequence["QueueScheduler"],
        horizon: float | None = None,
    ) -> None:
        """Attach the configured fault processes to a built simulation.

        ``states``/``schedulers`` must be in construction order (the
        builders pin it), because stream names are derived from cell
        index and scheduler name.
        """
        self._horizon = horizon
        cfg = self.config
        if cfg.machine_mtbf is not None:
            for index, state in enumerate(states):
                process = FailureRepairProcess(
                    self.sim,
                    state,
                    self._streams.stream(f"machine-failures.{index}"),
                    mtbf=cfg.machine_mtbf,
                    repair_time=MACHINE_REPAIR_TIME,
                    on_fail=partial(self._machine_failed, index),
                    on_repair=partial(self._machine_repaired, index),
                )
                process.start(horizon)
                self.processes.append(process)
        if cfg.wants_commit_faults:
            for scheduler in schedulers:
                scheduler.chaos = self
                self._commit_rngs[scheduler.name] = self._streams.stream(
                    f"commit.{scheduler.name}"
                )
        if cfg.crash_mtbf is not None:
            for scheduler in schedulers:
                self._schedule_crash(
                    scheduler, self._streams.stream(f"crash.{scheduler.name}")
                )

    # ------------------------------------------------------------------
    # Machine failures (observer hooks on FailureRepairProcess)
    # ------------------------------------------------------------------
    def _machine_failed(self, cell_index: int, machine: int) -> None:
        self.metrics.record_machine_failure()
        rec = self.sim.recorder
        if rec.enabled:
            rec.event(
                "fault.machine_down", t=self.sim.now, cell=cell_index, machine=machine
            )

    def _machine_repaired(self, cell_index: int, machine: int) -> None:
        rec = self.sim.recorder
        if rec.enabled:
            rec.event(
                "fault.machine_up", t=self.sim.now, cell=cell_index, machine=machine
            )

    # ------------------------------------------------------------------
    # Scheduler crash/restart
    # ------------------------------------------------------------------
    def _schedule_crash(self, scheduler: "QueueScheduler", rng) -> None:
        gap = float(rng.exponential(self.config.crash_mtbf))
        when = self.sim.now + gap
        if self._horizon is None or when <= self._horizon:
            self.sim.at(when, self._crash_scheduler, scheduler, rng)

    def _crash_scheduler(self, scheduler: "QueueScheduler", rng) -> None:
        if not scheduler.is_down:
            lost = scheduler.crash()
            self.metrics.record_scheduler_crash(scheduler.name)
            rec = self.sim.recorder
            if rec.enabled:
                rec.event(
                    "fault.sched_crash",
                    t=self.sim.now,
                    sched=scheduler.name,
                    lost_job=lost.job_id if lost is not None else None,
                )
            self.sim.after(CRASH_RESTART_TIME, self._restart_scheduler, scheduler)
        self._schedule_crash(scheduler, rng)

    def _restart_scheduler(self, scheduler: "QueueScheduler") -> None:
        rec = self.sim.recorder
        if rec.enabled:
            rec.event("fault.sched_restart", t=self.sim.now, sched=scheduler.name)
        scheduler.restart()

    # ------------------------------------------------------------------
    # Commit-path faults (called by schedulers when chaos is installed)
    # ------------------------------------------------------------------
    def commit_fault(
        self, scheduler: "QueueScheduler", job: "Job"
    ) -> tuple[float, bool]:
        """Draw this attempt's commit fault: ``(extra_delay, dropped)``.

        Drawn from the scheduler's own ``commit.{name}`` stream at
        think-start, so each scheduler's fault sequence depends only on
        its own attempt ordering.
        """
        cfg = self.config
        rng = self._commit_rngs[scheduler.name]
        if cfg.commit_drop_prob > 0 and rng.random() < cfg.commit_drop_prob:
            return 0.0, True
        if cfg.commit_delay_prob > 0 and rng.random() < cfg.commit_delay_prob:
            return float(rng.exponential(COMMIT_DELAY_MEAN)), False
        return 0.0, False
