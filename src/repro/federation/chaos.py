"""Cell-scoped fault injection for the federation.

Extends the chaos model of :mod:`repro.faults.chaos` one level up, to
whole cells: blackouts (every scheduler in the cell crashes and the
cell drops off the front door), aggregate-feed partitions (the cell's
digest freezes while the cell itself keeps working), and front-door
link flaps (the cell is briefly unreachable but internally healthy).

Determinism contract, identical to the intra-cell engine: every fault
timeline is drawn from its own named stream — ``blackout.{i}``,
``partition.{i}``, ``flap.{i}`` per cell — on a dedicated fork of the
run's master streams, so fault schedules are a pure function of the
master seed and independent of event interleaving, and a zero-intensity
config draws nothing at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.federation.cells import FederatedCell
from repro.federation.config import FederationFaultConfig
from repro.federation.router import FrontDoor
from repro.sim import RandomStreams, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: How long a blackout, a feed partition and a link flap last, seconds.
BLACKOUT_DURATION = 600.0
PARTITION_DURATION = 900.0
FLAP_DURATION = 60.0


class FederationChaosEngine:
    """Installs and drives the configured cell-scoped fault processes.

    ``streams`` must be a dedicated fork of the run's master streams
    (``streams.fork("fed-chaos")``): each (cell, fault class) pair then
    draws from its own child stream, so adding or removing one fault
    class never perturbs the timelines of the others.
    """

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        config: FederationFaultConfig,
        cells: Sequence[FederatedCell],
        front_door: FrontDoor,
        horizon: float | None = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.cells = list(cells)
        self.front_door = front_door
        self._streams = streams
        self._horizon = horizon
        self.blackouts = 0
        self.partitions = 0
        self.flaps = 0

    # ------------------------------------------------------------------
    def install(self) -> None:
        cfg = self.config
        for cell in self.cells:
            if cfg.blackout_mtbf is not None:
                self._arm(
                    cell,
                    self._streams.stream(f"blackout.{cell.index}"),
                    cfg.blackout_mtbf,
                    self._blackout,
                )
            if cfg.partition_mtbf is not None:
                self._arm(
                    cell,
                    self._streams.stream(f"partition.{cell.index}"),
                    cfg.partition_mtbf,
                    self._partition,
                )
            if cfg.flap_mtbf is not None:
                self._arm(
                    cell,
                    self._streams.stream(f"flap.{cell.index}"),
                    cfg.flap_mtbf,
                    self._flap,
                )

    def _arm(
        self,
        cell: FederatedCell,
        rng: "np.random.Generator",
        mtbf: float,
        fault: Callable[[FederatedCell, "np.random.Generator"], None],
    ) -> None:
        gap = float(rng.exponential(mtbf))
        when = self.sim.now + gap
        if self._horizon is None or when <= self._horizon:
            self.sim.at(when, fault, cell, rng)

    # ------------------------------------------------------------------
    # Whole-cell blackout / recovery
    # ------------------------------------------------------------------
    def _blackout(self, cell: FederatedCell, rng: "np.random.Generator") -> None:
        if not cell.blacked_out:
            cell.blacked_out = True
            self.blackouts += 1
            drained = []
            lost = 0
            for scheduler in cell.world.schedulers:
                inflight = scheduler.crash(requeue=False)
                if inflight is not None:
                    lost += 1
                    self.front_door.record_lost(inflight, cell)
                drained.extend(scheduler.drain_pending())
            rec = self.sim.recorder
            if rec.enabled:
                rec.event(
                    "fault.cell_blackout",
                    t=self.sim.now,
                    cell=cell.name,
                    inflight_lost=lost,
                    drained=len(drained),
                )
            self.sim.after(BLACKOUT_DURATION, self._recover, cell)
            # Migrate the drained backlog last, so the router sees the
            # cell already dark and never routes the backlog straight
            # back into it.
            self.front_door.migrate(drained, cell)
        self._arm(cell, rng, self.config.blackout_mtbf, self._blackout)

    def _recover(self, cell: FederatedCell) -> None:
        cell.blacked_out = False
        rec = self.sim.recorder
        if rec.enabled:
            rec.event("fault.cell_recover", t=self.sim.now, cell=cell.name)
        for scheduler in cell.world.schedulers:
            scheduler.restart()

    # ------------------------------------------------------------------
    # Aggregate-feed partition / heal
    # ------------------------------------------------------------------
    def _partition(self, cell: FederatedCell, rng: "np.random.Generator") -> None:
        if not cell.partitioned:
            cell.freeze_digest()
            cell.partitioned = True
            self.partitions += 1
            rec = self.sim.recorder
            if rec.enabled:
                rec.event("fault.feed_partition", t=self.sim.now, cell=cell.name)
            self.sim.after(PARTITION_DURATION, self._heal, cell)
        self._arm(cell, rng, self.config.partition_mtbf, self._partition)

    def _heal(self, cell: FederatedCell) -> None:
        cell.partitioned = False
        cell.thaw_digest()
        rec = self.sim.recorder
        if rec.enabled:
            rec.event("fault.feed_heal", t=self.sim.now, cell=cell.name)

    # ------------------------------------------------------------------
    # Front-door link flap
    # ------------------------------------------------------------------
    def _flap(self, cell: FederatedCell, rng: "np.random.Generator") -> None:
        if not cell.link_down:
            cell.link_down = True
            self.flaps += 1
            rec = self.sim.recorder
            if rec.enabled:
                rec.event("fault.link_down", t=self.sim.now, cell=cell.name)
            self.sim.after(FLAP_DURATION, self._link_up, cell)
        self._arm(cell, rng, self.config.flap_mtbf, self._flap)

    def _link_up(self, cell: FederatedCell) -> None:
        cell.link_down = False
        rec = self.sim.recorder
        if rec.enabled:
            rec.event("fault.link_up", t=self.sim.now, cell=cell.name)
