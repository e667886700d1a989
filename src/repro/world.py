"""One run, one world: the lifecycle every simulation shares.

A :class:`RunContext` owns what exists once per *run*: the event loop,
the job-id sequence, the trace recorder, and the ``run.start`` /
``run.end`` records that bracket the loop. A :class:`World` owns what
exists once per *cell*: cell states, schedulers and their roles, the
metrics collector, the optional ledger and collectors, the invariant
gate and result assembly. A stand-alone simulation is a context with
one world, a federation a context with N; which schedulers, how the
cell is filled and where jobs come from is :meth:`World.assemble`.

The recorder enters only as ``RunContext(recorder=...)``; the context
hands it to its simulator as ``sim.recorder``, where every instrumented
component reads it. Two runs in one process trace to two recorders.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING, Callable, Iterator

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.core.preemption import AllocationLedger
from repro.invariants import CellStateInvariantChecker
from repro.metrics import MetricsCollector
from repro.metrics.results import RunSummary
from repro.obs.export import TRACE_VERSION
from repro.obs.recorder import NULL_RECORDER
from repro.obs.timeline import TimelineSampler
from repro.sim import RandomStreams, Simulator
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.chaos import ChaosEngine, FaultConfig


class RunContext:
    """What one run owns, shared by every world built under it."""

    def __init__(self, recorder=NULL_RECORDER) -> None:
        self.sim = Simulator()
        self.sim.recorder = recorder
        #: Ids for every job of the run, whichever source creates it.
        #: Schedulers hash on them, so they start at 1 for each run.
        self.job_ids: Iterator[int] = itertools.count(1)

    def run(self, until: float, architecture: str, seed: int, **fields) -> dict:
        """Run the loop to ``until`` between a ``run.start`` and a
        ``run.end`` record (the engine statistics, ``wall_seconds`` as
        ``wall_ms``); returns the statistics for :meth:`World.finalize`."""
        rec = self.sim.recorder
        if rec.enabled:
            rec.event(
                "run.start",
                t=self.sim.now,
                trace_version=TRACE_VERSION,
                architecture=architecture,
                horizon=until,
                seed=seed,
                **fields,
            )
        self.sim.run(until=until)
        stats = self.sim.stats()
        if rec.enabled:
            engine = dict(stats)
            engine["wall_ms"] = engine.pop("wall_seconds") * 1000.0
            rec.event("run.end", t=self.sim.now, **engine)
        return stats


class World:
    """One cell and everything attached to it.

    Subclasses implement ``assemble()`` — register schedulers, fill the
    cell, start arrivals — which :meth:`build` calls once; ``run_fields``
    describe the world in its ``run.start`` record.
    """

    def __init__(
        self,
        config,
        context: RunContext,
        streams: RandomStreams,
        cell: Cell,
        horizon: float,
        **run_fields,
    ) -> None:
        self.config = config
        self.context = context
        self.sim = context.sim
        self.streams = streams
        self.cell = cell
        self.horizon = horizon
        self.run_fields = run_fields
        self.metrics = MetricsCollector(period=config.period)
        self.states: list[CellState] = []
        #: Every scheduler, in registration order — what the chaos
        #: engine's faults target and the timeline sampler reads.
        self.schedulers: list = []
        #: Scheduler names per role, for the result's role accessors.
        self.roles: dict[str, list[str]] = {"batch": [], "service": []}
        self.submit: Callable[[Job], None] | None = None
        self.ledger: AllocationLedger | None = None
        self.chaos: ChaosEngine | None = None
        self.timeline_sampler: TimelineSampler | None = None
        self.utilization_series: list[tuple[float, float, float]] = []
        self._built = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_state(self) -> CellState:
        state = CellState(self.cell)
        self.states.append(state)
        return state

    def register(self, scheduler, *roles: str) -> None:
        """Add ``scheduler`` to the cell, reporting under ``roles``
        ("batch", "service"; none for an extension), until the run starts."""
        self.schedulers.append(scheduler)
        for role in roles:
            self.roles[role].append(scheduler.name)

    def build(self) -> "World":
        if self._built:
            raise RuntimeError("simulation already built")
        self._built = True
        self.assemble()
        return self

    def install_collectors(
        self,
        faults: FaultConfig | None,
        invariant_interval: float | None,
        utilization_interval: float | None,
        timeline_interval: float | None,
    ) -> None:
        """The optional fault processes and periodic observers, in the
        order that fixes their event sequence numbers. The fault layer
        is imported only when ``faults`` injects something."""
        sim, horizon = self.sim, self.horizon
        if faults is not None and faults.enabled:
            from repro.faults.chaos import ChaosEngine

            self.chaos = ChaosEngine(
                sim, self.streams.fork("chaos"), faults, self.metrics
            )
            self.chaos.install(
                self.states, self.schedulers, ledger=self.ledger, horizon=horizon
            )
        if invariant_interval is not None:
            self.invariant_checker.install(sim, invariant_interval, horizon=horizon)
        if utilization_interval:
            sim.every(utilization_interval, self._sample_utilization, until=horizon)
        if timeline_interval is not None:
            self.timeline_sampler = TimelineSampler(
                sim,
                self.metrics,
                self.states,
                self.schedulers,
                interval=timeline_interval,
                horizon=horizon,
                chaos=self.chaos,
            )
            self.timeline_sampler.install()

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def cpu_utilization(self) -> float:
        used = sum(state.used_cpu for state in self.states)
        return used / sum(state.cell.total_cpu for state in self.states)

    def mem_utilization(self) -> float:
        used = sum(state.used_mem for state in self.states)
        return used / sum(state.cell.total_mem for state in self.states)

    def _sample_utilization(self) -> None:
        self.utilization_series.append(
            (self.sim.now, self.cpu_utilization(), self.mem_utilization())
        )

    @functools.cached_property
    def invariant_checker(self) -> CellStateInvariantChecker:
        """The cell's one checker: ticking on the loop when an interval
        is configured, and the post-run gate either way, so its
        counters cover both."""
        return CellStateInvariantChecker(self.states, ledger=self.ledger)

    def check_invariants(self) -> list[str]:
        """Post-run invariant gate over every cell state (and ledger).

        Raises :class:`repro.invariants.InvariantViolation` on any
        inconsistency; returns the (empty) violation list otherwise.
        """
        return self.invariant_checker.check(self.sim.now)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self) -> RunSummary:
        """Run this world alone on its context, building it first if
        the caller has not."""
        if not self._built:
            self.build()
        return self.finalize(self.context.run(self.horizon, **self.run_fields))

    def finalize(self, stats: dict) -> RunSummary:
        """The ``run.metrics`` record and result assembly, given the
        loop's final ``stats``."""
        rec = self.sim.recorder
        if rec.enabled:
            rec.event(
                "run.metrics",
                t=self.sim.now,
                histograms=[
                    {"name": m.name, "labels": m.labels, "state": m.state()}
                    for m in self.metrics.histograms()
                ],
            )
        return RunSummary(
            metrics=self.metrics,
            horizon=self.horizon,
            batch_scheduler_names=self.roles["batch"],
            service_scheduler_names=self.roles["service"],
            final_cpu_utilization=self.cpu_utilization(),
            utilization_series=self.utilization_series,
            sim_stats=stats,
        )
