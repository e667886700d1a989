"""The seeded chaos engine for the lightweight simulator.

Injects three fault classes into any of the section 4 architectures
(monolithic, partitioned, Mesos, Omega):

* **machine failure/repair** — a Poisson process per cell (shared
  :class:`~repro.hifi.failures.FailureRepairProcess`), evicting
  ledgered tasks and withholding capacity until repair;
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

from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Sequence

from repro.core.cellstate import CellState
from repro.hifi.failures import FailureRepairProcess
from repro.metrics import MetricsCollector
from repro.obs import recorder as _obs
from repro.sim import RandomStreams, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.preemption import AllocationLedger
    from repro.schedulers.base import QueueScheduler
    from repro.workload.job import Job


@dataclass(frozen=True)
class FaultConfig:
    """What to inject and how hard. Frozen and primitive-only so sweep
    points stay picklable across ``--jobs N`` worker processes.

    The default config injects nothing (:attr:`enabled` is False);
    experiments define a baseline and scale it with :meth:`scaled`.
    """

    #: Per-machine mean time between failures (seconds); None disables
    #: machine failures.
    machine_mtbf: float | None = None
    machine_repair_time: float = 1800.0
    #: Per-scheduler mean time between crashes (seconds); None disables
    #: scheduler crashes.
    crash_mtbf: float | None = None
    crash_restart_time: float = 30.0
    #: Probability that one scheduling attempt's commit suffers a
    #: latency spike / is dropped outright.
    commit_delay_prob: float = 0.0
    #: Mean of the (exponential) commit latency spike, seconds.
    commit_delay_mean: float = 5.0
    commit_drop_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.machine_mtbf is not None and self.machine_mtbf <= 0:
            raise ValueError(f"machine_mtbf must be positive, got {self.machine_mtbf}")
        if self.machine_repair_time <= 0:
            raise ValueError(
                f"machine_repair_time must be positive, got {self.machine_repair_time}"
            )
        if self.crash_mtbf is not None and self.crash_mtbf <= 0:
            raise ValueError(f"crash_mtbf must be positive, got {self.crash_mtbf}")
        if self.crash_restart_time <= 0:
            raise ValueError(
                f"crash_restart_time must be positive, got {self.crash_restart_time}"
            )
        for name in ("commit_delay_prob", "commit_drop_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.commit_delay_mean <= 0:
            raise ValueError(
                f"commit_delay_mean must be positive, got {self.commit_delay_mean}"
            )

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
        if intensity < 0:
            raise ValueError(f"intensity must be >= 0, got {intensity}")
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
        self.crashes = 0
        self.commit_delays = 0
        self.commit_drops = 0

    # ------------------------------------------------------------------
    @property
    def machine_failures(self) -> int:
        return sum(process.failures for process in self.processes)

    @property
    def tasks_killed(self) -> int:
        return sum(process.tasks_killed for process in self.processes)

    @property
    def machines_down(self) -> int:
        """Machines currently failed and awaiting repair, across cells."""
        return sum(process.machines_down for process in self.processes)

    # ------------------------------------------------------------------
    def install(
        self,
        states: Sequence[CellState],
        schedulers: Sequence["QueueScheduler"],
        ledger: "AllocationLedger | None" = None,
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
                evict = None
                if ledger is not None and ledger.state is state:
                    evict = ledger.evict_machine
                process = FailureRepairProcess(
                    self.sim,
                    state,
                    self._streams.stream(f"machine-failures.{index}"),
                    mtbf=cfg.machine_mtbf,
                    repair_time=cfg.machine_repair_time,
                    evict=evict,
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
    def _machine_failed(self, cell_index: int, machine: int, killed: int) -> None:
        self.metrics.record_machine_failure(killed)
        rec = _obs.RECORDER
        if rec.enabled:
            rec.event(
                "fault.machine_down",
                t=self.sim.now,
                cell=cell_index,
                machine=machine,
                killed=killed,
            )

    def _machine_repaired(self, cell_index: int, machine: int) -> None:
        rec = _obs.RECORDER
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
            self.crashes += 1
            self.metrics.record_scheduler_crash(scheduler.name)
            rec = _obs.RECORDER
            if rec.enabled:
                rec.event(
                    "fault.sched_crash",
                    t=self.sim.now,
                    sched=scheduler.name,
                    lost_job=lost.job_id if lost is not None else None,
                )
            self.sim.after(
                self.config.crash_restart_time, self._restart_scheduler, scheduler
            )
        self._schedule_crash(scheduler, rng)

    def _restart_scheduler(self, scheduler: "QueueScheduler") -> None:
        rec = _obs.RECORDER
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
            self.commit_drops += 1
            return 0.0, True
        if cfg.commit_delay_prob > 0 and rng.random() < cfg.commit_delay_prob:
            delay = float(rng.exponential(cfg.commit_delay_mean))
            self.commit_delays += 1
            return delay, False
        return 0.0, False
