"""Builds and runs one federated multi-cell simulation.

The federation is one :class:`~repro.world.RunContext` with N worlds:
every member cell is a full :class:`~repro.experiments.common.
LightweightSimulation` built under it (cell 0 on the run's master
streams, cell *i* on a ``cell.{i}`` fork, so a 1-cell federation draws
byte-identical randomness to the single-cell baseline). The front door
takes the arrivals — the combined stream runs at ``num_cells`` times
the per-cell template rate — and routes them on the cells'
eventually-consistent digests.

The caller supplies the master :class:`~repro.sim.RandomStreams`
(see :func:`repro.experiments.federation.build_federation`): this
module is a fault injector to ``tests/test_source_invariants.py`` and
therefore never constructs its own entropy source.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.common import start_workload
from repro.federation.cells import FederatedCell
from repro.federation.chaos import FederationChaosEngine
from repro.federation.config import FederationConfig
from repro.federation.router import FrontDoor
from repro.metrics.results import PooledSummary, RunSummary
from repro.obs.histogram import Histogram
from repro.sim import RandomStreams
from repro.sim.random import derive_seed
from repro.world import RunContext


@dataclass
class FederatedResult(PooledSummary):
    """Metrics of one federated run: the N-cell
    :class:`~repro.metrics.results.PooledSummary` plus what only the
    front door knows (the job ledger, migrations, reroutes, faults, its
    own abandonments and the merged wait percentiles)."""

    config: FederationConfig
    cell_results: list[RunSummary]
    accounting: dict[str, int]
    jobs_migrated: int
    jobs_rerouted: int
    route_timeouts: int
    abandoned_by_reason: dict[str, int]
    blackouts: int
    partitions: int
    flaps: int
    final_cpu_utilization: float
    sim_stats: dict[str, float | int]

    @property
    def jobs_submitted(self) -> int:
        """Jobs that entered the federation (front-door count: each job
        once, however many times it was rerouted or migrated)."""
        return self.accounting["submitted"]

    @property
    def jobs_abandoned(self) -> int:
        """Cell-level abandonments plus the front door's own
        (reroute-cap / migration-cap)."""
        return super().jobs_abandoned + sum(self.abandoned_by_reason.values())

    # ------------------------------------------------------------------
    # Federation-wide wait-time percentiles (Histogram.merge_state)
    # ------------------------------------------------------------------
    def merged_wait_histogram(self) -> Histogram:
        """Every cell's per-scheduler ``jobs.wait_seconds`` histograms
        folded, in label order, into one federation-wide histogram via
        :meth:`~repro.obs.histogram.Histogram.merge_state`."""
        merged = Histogram("jobs.wait_seconds", {"scope": "federation"})
        histograms = [
            histogram
            for cell in self.cell_results
            for histogram in cell.metrics.histograms()
            if histogram.name == "jobs.wait_seconds"
        ]
        for histogram in sorted(histograms, key=lambda h: sorted(h.labels.items())):
            merged.merge_state(histogram.state())
        return merged

    def wait_percentiles(self) -> dict[str, float]:
        merged = self.merged_wait_histogram()
        return {
            "wait_p50": merged.percentile(50.0),
            "wait_p99": merged.percentile(99.0),
            "wait_p999": merged.percentile(99.9),
        }


class FederatedSimulation:
    """Builds and runs one configured federation.

    ``streams`` is the run's master :class:`~repro.sim.RandomStreams`,
    created by the caller from the cell template's seed; cell 0 shares
    it directly (the degenerate-baseline identity), higher cells fork.
    Every cell runs on ``context``.
    """

    def __init__(
        self, config: FederationConfig, streams: RandomStreams, context: RunContext
    ) -> None:
        self.config = config
        self.context = context
        self.sim = self.context.sim
        self.streams = streams
        self.cells: list[FederatedCell] = []
        self.front_door: FrontDoor | None = None
        self.chaos: FederationChaosEngine | None = None

    # ------------------------------------------------------------------
    def build(self) -> "FederatedSimulation":
        if self.front_door is not None:
            raise RuntimeError("federation already built")
        config = self.config
        base = config.cell_config
        for index in range(config.num_cells):
            cell_config = replace(
                base,
                external_arrivals=True,
                name_prefix=f"c{index}/",
                seed=(
                    base.seed
                    if index == 0
                    else derive_seed(base.seed, f"cell.{index}")
                ),
            )
            cell_streams = (
                self.streams if index == 0 else self.streams.fork(f"cell.{index}")
            )
            self.cells.append(
                FederatedCell(
                    index,
                    cell_config,
                    self.context,
                    cell_streams,
                    staleness=config.staleness,
                )
            )
        self.front_door = FrontDoor(self.sim, self.cells, config)
        if config.staleness > 0:
            for cell in self.cells:
                cell.publish_digest()
                self.sim.every(
                    config.staleness, cell.publish_digest, until=base.horizon
                )
        start_workload(
            self.context,
            self.streams,
            base,
            self.front_door.submit,
            float(config.num_cells),
        )
        if config.fault_config.enabled:
            self.chaos = FederationChaosEngine(
                self.sim,
                self.streams.fork("fed-chaos"),
                config.fault_config,
                self.cells,
                self.front_door,
                horizon=base.horizon,
            )
            self.chaos.install()
        return self

    # ------------------------------------------------------------------
    def check_invariants(self) -> list[str]:
        """Per-cell post-run invariant gate (every cell state must stay
        internally consistent, blackouts included)."""
        violations: list[str] = []
        for cell in self.cells:
            violations.extend(cell.world.check_invariants())
        return violations

    def cpu_utilization(self) -> float:
        states = [state for cell in self.cells for state in cell.world.states]
        used = sum(state.used_cpu for state in states)
        return used / sum(state.cell.total_cpu for state in states)

    # ------------------------------------------------------------------
    def run(self) -> FederatedResult:
        if self.front_door is None:
            self.build()
        config = self.config
        base = config.cell_config
        stats = self.context.run(
            base.horizon,
            "federation",
            base.seed,
            cluster=base.preset.name,
            cells=config.num_cells,
            staleness=config.staleness,
            policy=config.policy,
        )
        cell_results = [cell.world.finalize(stats) for cell in self.cells]
        assert self.front_door is not None
        accounting = self.front_door.check_accounting()
        chaos = self.chaos
        return FederatedResult(
            config=config,
            cell_results=cell_results,
            accounting=accounting,
            jobs_migrated=self.front_door.jobs_migrated,
            jobs_rerouted=self.front_door.jobs_rerouted,
            route_timeouts=self.front_door.route_timeouts,
            abandoned_by_reason=dict(self.front_door.abandoned_by_reason),
            blackouts=chaos.blackouts if chaos is not None else 0,
            partitions=chaos.partitions if chaos is not None else 0,
            flaps=chaos.flaps if chaos is not None else 0,
            final_cpu_utilization=self.cpu_utilization(),
            sim_stats=stats,
        )
