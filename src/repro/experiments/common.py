"""The lightweight simulator harness (paper section 4).

Assembles a cell, its standing task population, workload generators and
one of the five scheduler architectures on the shared
:mod:`repro.world` lifecycle, and exposes the paper's metrics. The same
seed produces a byte-identical workload for every architecture, which
is what makes the section 4 comparisons apples-to-apples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.cellstate import CellState
from repro.core.fill import populate
from repro.core.multi import SchedulerPool
from repro.core.placement import placement_fn
from repro.core.preemption import AllocationLedger
from repro.core.retry import RetryPolicyConfig, StarvationEscalationPolicy
from repro.core.scheduler import (
    OmegaScheduler,
    PlacementFn,
    PreemptingOmegaScheduler,
)
from repro.core.transaction import CommitMode, ConflictMode
from repro.metrics.results import RunSummary
from repro.schedulers.base import DecisionTimeModel
from repro.schedulers.mesos import MesosAllocator, MesosFramework
from repro.schedulers.monolithic import MonolithicScheduler
from repro.schedulers.partitioned import StaticPartition
from repro.sim import RandomStreams
from repro.workload.clusters import ClusterPreset
from repro.workload.generator import InitialFill, WorkloadGenerator
from repro.workload.job import Job, JobType
from repro.world import RunContext, World

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.chaos import FaultConfig

DAY = 86400.0


# ----------------------------------------------------------------------
# The five architectures of Figure 10, as builders that register their
# schedulers (and cell states, and the submit entry point) on a world
# ----------------------------------------------------------------------
def _route_by_type(
    batch: Callable[[Job], None], service: Callable[[Job], None]
) -> Callable[[Job], None]:
    def submit(job: Job) -> None:
        if job.job_type is JobType.BATCH:
            batch(job)
        else:
            service(job)

    return submit


def _monolithic(world: World, name: str, decision_times) -> None:
    scheduler = MonolithicScheduler(
        name,
        world.sim,
        world.metrics,
        world.add_state(),
        world.streams.stream("placement.monolithic"),
        decision_times,
        attempt_limit=world.config.attempt_limit,
    )
    world.register(scheduler, "batch", "service")
    world.submit = scheduler.submit


def _monolithic_single(world: World) -> None:
    # Single code path: the (swept) service model applies to all jobs.
    _monolithic(world, "monolithic", world.config.service_model)


def _monolithic_multi(world: World) -> None:
    # A fast path for batch, a slow path for service (Figure 5b/6b).
    config = world.config
    _monolithic(
        world,
        "monolithic-multipath",
        {JobType.BATCH: config.batch_model, JobType.SERVICE: config.service_model},
    )


def _partitioned(world: World) -> None:
    config = world.config
    partition = StaticPartition(
        world.sim,
        world.metrics,
        world.cell,
        world.streams.stream("placement.partition-batch"),
        world.streams.stream("placement.partition-service"),
        batch_model=config.batch_model,
        service_model=config.service_model,
        attempt_limit=config.attempt_limit,
    )
    world.states.extend(partition.states)
    world.register(partition.batch_scheduler, "batch")
    world.register(partition.service_scheduler, "service")
    world.submit = partition.submit


def _mesos(world: World) -> None:
    config = world.config
    allocator = MesosAllocator(
        world.sim, world.add_state(), offer_policy=config.mesos_offer_policy
    )
    batch, service = (
        MesosFramework(
            f"mesos-{role}",
            world.sim,
            world.metrics,
            allocator,
            world.streams.stream(f"placement.mesos-{role}"),
            model,
            attempt_limit=config.attempt_limit,
        )
        for role, model in (
            ("batch", config.batch_model),
            ("service", config.service_model),
        )
    )
    world.register(batch, "batch")
    world.register(service, "service")
    world.submit = _route_by_type(batch.submit, service.submit)


def omega_schedulers(
    world: World,
    state: CellState,
    stem: str,
    placement: PlacementFn,
    ledger: AllocationLedger | None,
    *,
    prefix: str = "",
    preempting: bool = False,
    retry: RetryPolicyConfig | None = None,
    retry_conflicts_at_front: bool = True,
    cooldown: float = 0.0,
) -> None:
    """Shared state: ``num_batch_schedulers`` hash-balanced batch
    schedulers and one service scheduler over ``state``.

    Both simulators build their schedulers here. The high-fidelity
    replay passes its own ``stem`` and scoring placer, and no ledger;
    the keyword arguments are the lightweight simulator's extensions.
    ``prefix`` goes on display names only, never on stream names.
    """
    config = world.config
    streams = world.streams

    def scheduler(base_name: str, stream: str, model: DecisionTimeModel, preempt=False):
        # Each scheduler has its own named retry stream, which exists
        # only where the starvation policy draws from it.
        policy = (
            None
            if retry is None or retry.kind == "immediate"
            else StarvationEscalationPolicy(
                streams.stream(f"retry.{base_name}"), retry.escalate_after
            )
        )
        args = (
            prefix + base_name,
            world.sim,
            world.metrics,
            state,
            streams.stream(f"placement.{stream}"),
            model,
        )
        if preempt:
            return PreemptingOmegaScheduler(
                *args,
                ledger=ledger,
                attempt_limit=config.attempt_limit,
                retry_conflicts_at_front=retry_conflicts_at_front,
                retry_policy=policy,
            )
        return OmegaScheduler(
            *args,
            conflict_mode=config.conflict_mode,
            commit_mode=config.commit_mode,
            placement=placement,
            attempt_limit=config.attempt_limit,
            retry_conflicts_at_front=retry_conflicts_at_front,
            ledger=ledger,
            conflict_avoidance_cooldown=cooldown,
            retry_policy=policy,
        )

    count = config.num_batch_schedulers
    pool = SchedulerPool(
        [
            scheduler(
                f"{stem}-batch-{i}" if count > 1 else f"{stem}-batch",
                f"{stem}-batch-{i}",
                config.batch_model,
            )
            for i in range(count)
        ]
    )
    service = scheduler(
        f"{stem}-service", f"{stem}-service", config.service_model, preempt=preempting
    )
    for member in pool.schedulers:
        world.register(member, "batch")
    world.register(service, "service")
    world.submit = _route_by_type(pool.submit, service.submit)


def _omega(world: World) -> None:
    config = world.config
    state = world.add_state()
    if config.enable_preemption:
        world.ledger = AllocationLedger(state, world.sim)
    omega_schedulers(
        world,
        state,
        "omega",
        placement_fn(config.placement_strategy),
        world.ledger,
        prefix=config.name_prefix,
        preempting=config.enable_preemption,
        retry=config.retry_policy,
        retry_conflicts_at_front=config.retry_conflicts_at_front,
        cooldown=config.conflict_avoidance_cooldown,
    )


#: Architecture name -> builder, in Figure 10's order, left to right.
ARCHITECTURES: dict[str, Callable[[World], None]] = {
    "monolithic-single": _monolithic_single,
    "monolithic-multi": _monolithic_multi,
    "partitioned": _partitioned,
    "mesos": _mesos,
    "omega": _omega,
}


def start_workload(
    context: RunContext,
    streams: RandomStreams,
    config: "LightweightConfig",
    submit: Callable[[Job], None],
    multiplier: float = 1.0,
) -> None:
    """Start ``config``'s batch and service arrival processes.

    A federation front door passes its own ``submit`` and its cell
    count as ``multiplier``: the same named streams at ``num_cells``
    times the template rates, so one cell is exactly the baseline.
    """
    for job_type, params, factor in (
        (JobType.BATCH, config.preset.batch, config.batch_rate_factor),
        (JobType.SERVICE, config.preset.service, 1.0),
    ):
        WorkloadGenerator(
            context.sim,
            params,
            job_type,
            streams.stream(f"workload.{job_type.value}"),
            submit,
            config.horizon,
            context.job_ids,
            rate_factor=factor * multiplier,
        ).start()


@dataclass
class LightweightConfig:
    """Everything that parameterizes one lightweight-simulator run."""

    preset: ClusterPreset
    architecture: str = "omega"
    horizon: float = DAY
    seed: int = 0
    batch_model: DecisionTimeModel = field(default_factory=DecisionTimeModel)
    service_model: DecisionTimeModel = field(default_factory=DecisionTimeModel)
    batch_rate_factor: float = 1.0  # Figure 8/9's relative lambda(batch)
    num_batch_schedulers: int = 1  # Figure 9: 1..32
    conflict_mode: ConflictMode = ConflictMode.FINE
    commit_mode: CommitMode = CommitMode.INCREMENTAL
    attempt_limit: int = 1000
    initial_utilization: float | None = None
    mesos_offer_policy: str = "all"
    utilization_sample_interval: float | None = None
    retry_conflicts_at_front: bool = True
    #: Omega only: run the service scheduler as a
    #: :class:`~repro.core.scheduler.PreemptingOmegaScheduler`
    #: and register all allocations in a shared ledger so service jobs
    #: can evict batch tasks (Table 1: "priority preemption").
    enable_preemption: bool = False
    #: Omega only: hot-machine backoff window in seconds (section 8
    #: future work; 0 disables).
    conflict_avoidance_cooldown: float = 0.0
    #: Omega only: placement strategy ("random-first-fit" — the paper's
    #: lightweight algorithm — "best-fit", or "worst-fit"); see
    #: :data:`repro.core.placement.PLACEMENT_STRATEGIES`.
    placement_strategy: str = "random-first-fit"
    #: Deterministic fault injection (:mod:`repro.faults`). ``None``, or
    #: a config that injects nothing, runs the fault-free path, which
    #: loads no fault module.
    fault_config: FaultConfig | None = None
    #: Omega only: conflict-retry policy built per scheduler from its own
    #: named random stream. ``None`` keeps the historical immediate
    #: front-of-queue retry untouched.
    retry_policy: RetryPolicyConfig | None = None
    #: Run a :class:`~repro.invariants.CellStateInvariantChecker` every this
    #: many seconds during the run; ``None`` disables continuous checks.
    invariant_check_interval: float | None = None
    #: Emit ``timeline.*`` trace records every this many simulated
    #: seconds (see :mod:`repro.obs.timeline`); ``None`` disables it.
    #: ``--timeline-interval`` gets here through
    #: :func:`repro.experiments.registry.run`, config by config.
    timeline_interval: float | None = None
    #: Jobs arrive from outside (a federation front door) rather than
    #: from this simulation's own workload generators. When set, no
    #: generators are created; the owner feeds :attr:`submit` directly.
    external_arrivals: bool = False
    #: Prefix applied to scheduler *display* names (e.g. ``"c0/"`` for
    #: federation cell 0) so trace records and histogram labels from
    #: many cells sharing one recorder stay distinguishable. Random
    #: stream names are deliberately *not* prefixed: each cell owns its
    #: own :class:`~repro.sim.RandomStreams`, and an unprefixed stream
    #: name is what makes a 1-cell federation draw the same randomness
    #: as the single-cell baseline.
    name_prefix: str = ""
    #: Add the specialized MapReduce scheduler (an Omega scheduler on the
    #: first cell state) under this :data:`repro.mapreduce.policies.POLICIES`
    #: policy, and its job stream (Figures 15 and 16); ``None`` loads no
    #: MapReduce module.
    mapreduce_policy: str | None = None

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}; "
                f"choose from {tuple(ARCHITECTURES)}"
            )
        for name in ("horizon", "batch_rate_factor"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.num_batch_schedulers < 1:
            raise ValueError("need at least one batch scheduler")
        if (
            self.invariant_check_interval is not None
            and self.invariant_check_interval <= 0
        ):
            raise ValueError(
                "invariant_check_interval must be positive, got "
                f"{self.invariant_check_interval}"
            )

    @property
    def period(self) -> float:
        """Aggregation period for 'daily' statistics: real days for long
        runs, quarters of the horizon for scaled-down ones."""
        return min(DAY, self.horizon / 4.0)


class LightweightSimulation(World):
    """One configured lightweight simulation.

    Stand-alone it runs on a context of its own; a federation passes
    the shared ``context`` and the cell's forked ``streams``.
    """

    def __init__(
        self,
        config: LightweightConfig,
        context: RunContext | None = None,
        streams: RandomStreams | None = None,
    ) -> None:
        super().__init__(
            config,
            context or RunContext(),
            streams or RandomStreams(config.seed),
            config.preset.cell(),
            config.horizon,
            architecture=config.architecture,
            seed=config.seed,
            cluster=config.preset.name,
        )

    def assemble(self) -> None:
        config = self.config
        ARCHITECTURES[config.architecture](self)
        self._fill_initial_state()
        if not config.external_arrivals:
            start_workload(self.context, self.streams, config, self.submit)
        self.install_collectors(
            config.fault_config,
            config.invariant_check_interval,
            config.utilization_sample_interval,
            config.timeline_interval,
        )
        if config.mapreduce_policy is not None:
            from repro.mapreduce.scheduler import add_mapreduce

            add_mapreduce(self, config.mapreduce_policy)

    def _fill_initial_state(self) -> None:
        fill = InitialFill(self.config.preset, self.config.initial_utilization)
        rng = self.streams.stream("initial-fill")
        tasks = fill.generate(rng)
        # Partitioned cells: split the standing population proportionally
        # to partition capacity (one state takes it all).
        total_cpu = sum(state.cell.total_cpu for state in self.states)
        start = 0
        for state in self.states:
            count = round(len(tasks) * (state.cell.total_cpu / total_cpu))
            populate(state, tasks.rows(start, start + count), rng, self.sim, self.horizon)
            start += count


def run_lightweight(
    config: LightweightConfig, context: RunContext | None = None
) -> RunSummary:
    """Build and run one lightweight-simulator experiment (on
    ``context``, if given: ``RunContext(recorder=...)`` traces it)."""
    return LightweightSimulation(config, context).run()


# ----------------------------------------------------------------------
# Shared helpers for the per-figure drivers
# ----------------------------------------------------------------------
def geometric_grid(low: float, high: float, points: int) -> list[float]:
    """A log-spaced parameter grid (the paper's log10 sweep axes)."""
    if points < 2:
        raise ValueError(f"need at least 2 points, got {points}")
    if low <= 0 or high <= low:
        raise ValueError(f"need 0 < low < high, got {low}, {high}")
    ratio = (high / low) ** (1.0 / (points - 1))
    return [low * ratio**i for i in range(points)]
