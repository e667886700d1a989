"""One federation member cell and its eventually-consistent digest.

Each cell wraps a full :class:`~repro.experiments.common.
LightweightSimulation` world (own CellState, schedulers, metrics
collector, chaos engine) built under the federation's *shared*
:class:`~repro.world.RunContext` and on random streams forked per cell
from the run's master seed.
The cell additionally carries the federation-facing state: reachability
flags driven by the federation chaos engine and the published
utilization/queue-depth digest the front door routes on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import LightweightConfig, LightweightSimulation
from repro.sim import RandomStreams
from repro.workload.job import Job
from repro.world import RunContext


@dataclass(frozen=True)
class CellDigest:
    """What a cell advertises to the front door.

    Routing decisions read this — never the cell's live state — so the
    router sees exactly what a real eventually-consistent aggregate
    view would show it: data up to one staleness interval old, or
    frozen arbitrarily long by a feed partition.
    """

    utilization: float
    queue_depth: int
    published_at: float


class FederatedCell:
    """One member cell of a federation.

    ``staleness`` is the digest publication interval: 0 means the front
    door reads the live digest synchronously (no publication events are
    scheduled, which keeps a zero-staleness run's event sequence free
    of federation artifacts).
    """

    def __init__(
        self,
        index: int,
        config: LightweightConfig,
        context: RunContext,
        streams: RandomStreams,
        staleness: float = 0.0,
    ) -> None:
        self.index = index
        self.name = f"c{index}"
        self.staleness = staleness
        self.world = LightweightSimulation(config, context, streams).build()
        self.sim = context.sim
        #: Whole-cell blackout: schedulers crashed, unreachable from the
        #: front door (set by the federation chaos engine).
        self.blacked_out = False
        #: Front-door link down: internally healthy but unreachable.
        self.link_down = False
        #: Aggregate-feed partition: the published digest is frozen.
        self.partitioned = False
        self._published: CellDigest | None = None
        self._frozen: CellDigest | None = None

    # ------------------------------------------------------------------
    @property
    def reachable(self) -> bool:
        """Whether a front-door submission can reach this cell now."""
        return not self.blacked_out and not self.link_down

    def submit(self, job: Job) -> None:
        assert self.world.submit is not None
        self.world.submit(job)

    def queue_depth(self) -> int:
        return sum(
            scheduler.queue_depth for scheduler in self.world.schedulers
        )

    # ------------------------------------------------------------------
    # The eventually-consistent digest
    # ------------------------------------------------------------------
    def live_digest(self) -> CellDigest:
        """The cell's true state right now (what a publish snapshots)."""
        return CellDigest(
            utilization=self.world.cpu_utilization(),
            queue_depth=self.queue_depth(),
            published_at=self.sim.now,
        )

    def publish_digest(self) -> None:
        """Publish the current digest to the aggregate view.

        Called every ``staleness`` seconds by the federation harness.
        While the feed is partitioned the publish is lost — the router
        keeps seeing the last pre-partition snapshot.
        """
        if self.partitioned:
            return
        self._published = self.live_digest()
        rec = self.sim.recorder
        if rec.enabled:
            rec.event(
                "fed.digest",
                t=self.sim.now,
                cell=self.name,
                utilization=self._published.utilization,
                queue_depth=self._published.queue_depth,
            )

    def freeze_digest(self) -> None:
        """Pin the digest the router sees for the partition's duration.

        With a nonzero staleness the frozen view is simply the last
        published snapshot; at zero staleness (synchronous reads) the
        partition snapshots the live state at onset.
        """
        self._frozen = (
            self._published if self.staleness > 0 else self.live_digest()
        )

    def thaw_digest(self) -> None:
        self._frozen = None

    def digest(self) -> CellDigest:
        """The digest the front door routes on."""
        if self.partitioned and self._frozen is not None:
            return self._frozen
        if self.staleness > 0 and self._published is not None:
            return self._published
        return self.live_digest()
