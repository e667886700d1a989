"""Configuration for the federated multi-cell simulation.

A federation is N independent Omega cells — each a full
:class:`~repro.experiments.common.LightweightSimulation` world — behind
a front-door router (see :mod:`repro.federation.router`). Both configs
here are frozen/primitive-only in the same spirit as
:class:`repro.faults.FaultConfig`, so federation sweep points stay
picklable across ``--jobs N`` worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.experiments.common import LightweightConfig
from repro.faults.chaos import check_intensity, check_mtbf

#: Front-door routing policies (Sliwko's taxonomy: static round-robin
#: and dynamic least-loaded). Neither draws a random number.
ROUTING_POLICIES = ("round-robin", "least-loaded")


@dataclass(frozen=True)
class FederationFaultConfig:
    """Cell-scoped fault classes injected by the federation chaos engine.

    The default config injects nothing (:attr:`enabled` is False), which
    keeps every zero-intensity federated run byte-identical to a
    fault-free one; experiments define a baseline and scale it with
    :meth:`scaled`, mirroring :class:`repro.faults.FaultConfig`.
    """

    #: Per-cell mean time between whole-cell blackouts (seconds); None
    #: disables blackouts. A blackout crashes every scheduler in the
    #: cell (in-flight commits are lost), drains the pending queues for
    #: cross-cell migration, and recovers after
    #: :data:`repro.federation.chaos.BLACKOUT_DURATION`.
    blackout_mtbf: float | None = None
    #: Per-cell mean time between aggregate-feed partitions (seconds);
    #: None disables them. A partition freezes the cell's published
    #: digest — the router keeps routing on the stale snapshot — until
    #: it heals after :data:`~repro.federation.chaos.PARTITION_DURATION`.
    partition_mtbf: float | None = None
    #: Per-cell mean time between front-door link flaps (seconds); None
    #: disables them. While the link is down (for
    #: :data:`~repro.federation.chaos.FLAP_DURATION`) the cell keeps
    #: scheduling internally but new submissions to it time out at the
    #: front door.
    flap_mtbf: float | None = None

    def __post_init__(self) -> None:
        for name in ("blackout_mtbf", "partition_mtbf", "flap_mtbf"):
            check_mtbf(name, getattr(self, name))

    @property
    def enabled(self) -> bool:
        """Whether this config injects any cell-scoped fault at all."""
        return (
            self.blackout_mtbf is not None
            or self.partition_mtbf is not None
            or self.flap_mtbf is not None
        )

    def scaled(self, intensity: float) -> "FederationFaultConfig":
        """This config with every fault rate multiplied by ``intensity``.

        Intensity 0 returns a fully disabled config (zero-intensity
        sweep rows run the exact fault-free code path); intensity k
        divides each MTBF by k.
        """
        check_intensity(intensity)
        if intensity == 0:
            return FederationFaultConfig()
        return replace(
            self,
            blackout_mtbf=(
                self.blackout_mtbf / intensity
                if self.blackout_mtbf is not None
                else None
            ),
            partition_mtbf=(
                self.partition_mtbf / intensity
                if self.partition_mtbf is not None
                else None
            ),
            flap_mtbf=(
                self.flap_mtbf / intensity if self.flap_mtbf is not None else None
            ),
        )


@dataclass
class FederationConfig:
    """Everything that parameterizes one federated run.

    ``cell_config`` is the per-cell template: every cell runs it with
    ``external_arrivals`` set (the front door owns the workload
    generators) and a ``c{i}/`` scheduler-name prefix. The front door
    generates the combined arrival stream at ``num_cells`` times the
    template's rate factors, so each cell carries roughly one cell's
    load and a 1-cell federation degenerates to the single-cell
    baseline exactly.
    """

    cell_config: LightweightConfig
    num_cells: int = 1
    #: Aggregate-view staleness: each cell publishes its
    #: utilization/queue-depth digest every this many simulated seconds.
    #: 0 means the router reads live state synchronously (and adds no
    #: simulator events — the degenerate-baseline requirement).
    staleness: float = 0.0
    policy: str = "round-robin"
    fault_config: FederationFaultConfig = field(
        default_factory=FederationFaultConfig
    )

    def __post_init__(self) -> None:
        if self.num_cells < 1:
            raise ValueError(f"need at least one cell, got {self.num_cells}")
        if self.policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {self.policy!r}; "
                f"choose from {ROUTING_POLICIES}"
            )
        if self.staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {self.staleness}")
