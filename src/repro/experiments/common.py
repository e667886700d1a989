"""The lightweight simulator harness (paper section 4).

Assembles a cell, its standing task population, workload generators and
one of the five scheduler architectures, runs the discrete-event
simulation, and exposes the paper's metrics. The same seed produces a
byte-identical workload for every architecture, which is what makes the
section 4 comparisons apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis import sanitizer as _san
from repro.core.cellstate import CellState
from repro.core.fill import populate
from repro.core.multi import SchedulerPool
from repro.core.placement import placement_fn
from repro.core.preemption import AllocationLedger
from repro.core.scheduler import OmegaScheduler
from repro.core.scheduler_preempting import PreemptingOmegaScheduler
from repro.core.transaction import CommitMode, ConflictMode
from repro.faults import CellStateInvariantChecker, ChaosEngine, FaultConfig
from repro.faults.predictor import ConflictPredictor, PredictorConfig
from repro.faults.retry import RetryPolicy, RetryPolicyConfig
from repro.metrics import MetricsCollector
from repro.metrics.results import RunSummary
from repro.obs import recorder as _obs
from repro.obs import timeline as _timeline
from repro.obs.registry import Histogram, publish_sim_stats
from repro.schedulers.base import DecisionTimeModel
from repro.schedulers.mesos import MesosAllocator, MesosFramework, reset_offer_ids
from repro.schedulers.monolithic import MonolithicScheduler
from repro.schedulers.partitioned import StaticPartition
from repro.sim import RandomStreams, Simulator
from repro.workload.clusters import ClusterPreset
from repro.workload.generator import InitialFill, WorkloadGenerator
from repro.workload.job import Job, JobType, reset_job_ids

DAY = 86400.0

#: The five architectures of Figure 10, left to right.
ARCHITECTURES = (
    "monolithic-single",
    "monolithic-multi",
    "partitioned",
    "mesos",
    "omega",
)


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
    service_rate_factor: float = 1.0
    num_batch_schedulers: int = 1  # Figure 9: 1..32
    conflict_mode: ConflictMode = ConflictMode.FINE
    commit_mode: CommitMode = CommitMode.INCREMENTAL
    attempt_limit: int = 1000
    metrics_period: float | None = None
    initial_utilization: float | None = None
    batch_partition_share: float = 0.5
    mesos_offer_policy: str = "all"
    utilization_sample_interval: float | None = None
    retry_conflicts_at_front: bool = True
    #: Omega only: run the service scheduler as a
    #: :class:`~repro.core.scheduler_preempting.PreemptingOmegaScheduler`
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
    #: Deterministic fault injection (:mod:`repro.faults`). The default
    #: config is disabled, keeping every fault-free run byte-identical.
    fault_config: FaultConfig = field(default_factory=FaultConfig)
    #: Omega only: conflict-retry policy built per scheduler from its own
    #: named random stream. ``None`` keeps the historical immediate
    #: front-of-queue retry untouched.
    retry_policy: RetryPolicyConfig | None = None
    #: Omega only: predictive conflict avoidance
    #: (:mod:`repro.faults.predictor`). ``None`` disables the predictor
    #: entirely — every placement/commit/trace code path stays
    #: byte-identical to a predictor-free build. Auto-enabled with
    #: defaults when ``retry_policy.kind == "predictive"`` (the policy
    #: is meaningless without the shared predictor instance).
    predictor: PredictorConfig | None = None
    #: Run a :class:`~repro.faults.CellStateInvariantChecker` every this
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

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}; "
                f"choose from {ARCHITECTURES}"
            )
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
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
        if (
            self.predictor is None
            and self.retry_policy is not None
            and self.retry_policy.kind == "predictive"
        ):
            self.predictor = PredictorConfig(
                escalate_probability=self.retry_policy.escalate_probability
            )
        if self.timeline_interval is not None and self.timeline_interval <= 0:
            raise ValueError(
                f"timeline_interval must be positive, got {self.timeline_interval}"
            )

    @property
    def period(self) -> float:
        """Aggregation period for 'daily' statistics: real days for long
        runs, quarters of the horizon for scaled-down ones."""
        if self.metrics_period is not None:
            return self.metrics_period
        return min(DAY, self.horizon / 4.0)


@dataclass
class LightweightResult(RunSummary):
    """Metrics of one lightweight run, with the paper's derived
    quantities (see :class:`repro.metrics.results.RunSummary`)."""

    config: LightweightConfig | None = None


class LightweightSimulation:
    """Builds and runs one configured lightweight simulation.

    Split from :func:`run_lightweight` so extensions (the MapReduce
    case-study scheduler of section 6) can compose with a built
    simulation before running it.
    """

    def __init__(
        self,
        config: LightweightConfig,
        sim: Simulator | None = None,
        streams: RandomStreams | None = None,
    ) -> None:
        self.config = config
        #: An injected simulator/stream pair means this world is one
        #: cell of a larger composition (the federation): the owner
        #: drives the event loop, resets global id counters and the
        #: sanitizer run, and publishes engine stats exactly once.
        self._external_sim = sim is not None
        self.sim = sim if sim is not None else Simulator()
        self.streams = streams if streams is not None else RandomStreams(config.seed)
        self.metrics = MetricsCollector(period=config.period)
        self.cell = config.preset.cell()
        self.states: list[CellState] = []
        self.submit: Callable[[Job], None] | None = None
        self.batch_scheduler_names: list[str] = []
        self.service_scheduler_names: list[str] = []
        #: Every scheduler object, in construction order — the chaos
        #: engine's crash/commit faults target entries of this registry.
        self.schedulers: list = []
        self.ledger: AllocationLedger | None = None
        self.chaos: ChaosEngine | None = None
        self.invariant_checker: CellStateInvariantChecker | None = None
        self.timeline_sampler: _timeline.TimelineSampler | None = None
        self.utilization_series: list[tuple[float, float, float]] = []
        self._built = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self) -> "LightweightSimulation":
        if self._built:
            raise RuntimeError("simulation already built")
        self._built = True
        if not self._external_sim:
            if _san.ACTIVE is None and _san.env_enabled():
                # Workers spawned by ``--jobs N`` inherit OMEGA_SAN=1 from
                # the parent's ``--sanitize`` but not its installed
                # sanitizer.
                _san.install()
            if _san.ACTIVE is not None:
                _san.ACTIVE.begin_run(now=lambda: self.sim.now)
            # Per-run global counters; a federation owner resets them
            # once before building its cells (begin_run would wipe the
            # sanitizer shadows of already-built sibling cells).
            reset_job_ids()
            reset_offer_ids()
        builder = getattr(self, f"_build_{self.config.architecture.replace('-', '_')}")
        builder()
        self._fill_initial_state()
        self._start_workload()
        config = self.config
        if config.fault_config.enabled:
            self.chaos = ChaosEngine(
                self.sim,
                self.streams.fork("chaos"),
                config.fault_config,
                self.metrics,
            )
            self.chaos.install(
                self.states,
                self.schedulers,
                ledger=self.ledger,
                horizon=config.horizon,
            )
        if config.invariant_check_interval is not None:
            self.invariant_checker = CellStateInvariantChecker(
                self.states, ledger=self.ledger
            )
            self.invariant_checker.install(
                self.sim, config.invariant_check_interval, horizon=config.horizon
            )
        if self.config.utilization_sample_interval:
            self.sim.every(
                self.config.utilization_sample_interval,
                self._sample_utilization,
                until=self.config.horizon,
            )
        if config.timeline_interval is not None:
            self.timeline_sampler = _timeline.TimelineSampler(
                self.sim,
                self.metrics,
                self.states,
                self.schedulers,
                interval=config.timeline_interval,
                horizon=config.horizon,
                chaos=self.chaos,
            )
            self.timeline_sampler.install()
        return self

    def _build_monolithic_single(self) -> None:
        state = CellState(self.cell)
        self.states.append(state)
        # Single code path: the (swept) service model applies to all jobs.
        scheduler = MonolithicScheduler.single_path(
            self.sim,
            self.metrics,
            state,
            self.streams.stream("placement.monolithic"),
            self.config.service_model,
            attempt_limit=self.config.attempt_limit,
        )
        self.submit = scheduler.submit
        self.schedulers = [scheduler]
        self.batch_scheduler_names = [scheduler.name]
        self.service_scheduler_names = [scheduler.name]

    def _build_monolithic_multi(self) -> None:
        state = CellState(self.cell)
        self.states.append(state)
        scheduler = MonolithicScheduler.multi_path(
            self.sim,
            self.metrics,
            state,
            self.streams.stream("placement.monolithic"),
            batch_model=self.config.batch_model,
            service_model=self.config.service_model,
            attempt_limit=self.config.attempt_limit,
        )
        self.submit = scheduler.submit
        self.schedulers = [scheduler]
        self.batch_scheduler_names = [scheduler.name]
        self.service_scheduler_names = [scheduler.name]

    def _build_partitioned(self) -> None:
        partition = StaticPartition(
            self.sim,
            self.metrics,
            self.cell,
            self.streams.stream("placement.partition-batch"),
            self.streams.stream("placement.partition-service"),
            batch_model=self.config.batch_model,
            service_model=self.config.service_model,
            batch_share=self.config.batch_partition_share,
            attempt_limit=self.config.attempt_limit,
        )
        self.states.extend(partition.states)
        self.submit = partition.submit
        self.schedulers = [partition.batch_scheduler, partition.service_scheduler]
        self.batch_scheduler_names = [partition.batch_scheduler.name]
        self.service_scheduler_names = [partition.service_scheduler.name]

    def _build_mesos(self) -> None:
        state = CellState(self.cell)
        self.states.append(state)
        allocator = MesosAllocator(
            self.sim, state, offer_policy=self.config.mesos_offer_policy
        )
        batch = MesosFramework(
            "mesos-batch",
            self.sim,
            self.metrics,
            allocator,
            self.streams.stream("placement.mesos-batch"),
            self.config.batch_model,
            attempt_limit=self.config.attempt_limit,
        )
        service = MesosFramework(
            "mesos-service",
            self.sim,
            self.metrics,
            allocator,
            self.streams.stream("placement.mesos-service"),
            self.config.service_model,
            attempt_limit=self.config.attempt_limit,
        )
        self.allocator = allocator

        def submit(job: Job) -> None:
            target = batch if job.job_type is JobType.BATCH else service
            target.submit(job)

        self.submit = submit
        self.schedulers = [batch, service]
        self.batch_scheduler_names = [batch.name]
        self.service_scheduler_names = [service.name]

    def _retry_policy(
        self,
        scheduler_name: str,
        predictor: ConflictPredictor | None = None,
    ) -> RetryPolicy | None:
        """Build the configured retry policy for one Omega scheduler.

        Each scheduler gets its own named random stream so jittered
        backoff draws are independent of every other stochastic process
        in the run (the determinism discipline of ``repro.sim.random``).
        ``predictor`` is the scheduler's own conflict predictor; the
        ``predictive`` policy shares it so escalation decisions read the
        same contention model that placement steering writes.
        """
        config = self.config.retry_policy
        if config is None:
            return None
        return config.build(
            self.streams.stream(f"retry.{scheduler_name}"), predictor=predictor
        )

    def _predictor(self) -> ConflictPredictor | None:
        """Build one scheduler's conflict predictor (None when disabled).

        Per-scheduler, never shared between schedulers: the paper's
        schedulers share nothing but the cell state, and each one's
        contention model must crash (and reset) with it alone.
        """
        if self.config.predictor is None:
            return None
        return ConflictPredictor(self.config.predictor)

    def _build_omega(self) -> None:
        state = CellState(self.cell)
        self.states.append(state)
        config = self.config
        ledger = None
        if config.enable_preemption:
            ledger = AllocationLedger(state, self.sim)
            self.ledger = ledger
        placement = placement_fn(config.placement_strategy)
        prefix = config.name_prefix
        batch_schedulers = []
        for i in range(config.num_batch_schedulers):
            base_name = (
                f"omega-batch-{i}"
                if config.num_batch_schedulers > 1
                else "omega-batch"
            )
            predictor = self._predictor()
            batch_schedulers.append(
                OmegaScheduler(
                    prefix + base_name,
                    self.sim,
                    self.metrics,
                    state,
                    self.streams.stream(f"placement.omega-batch-{i}"),
                    config.batch_model,
                    conflict_mode=config.conflict_mode,
                    commit_mode=config.commit_mode,
                    attempt_limit=config.attempt_limit,
                    retry_conflicts_at_front=config.retry_conflicts_at_front,
                    ledger=ledger,
                    conflict_avoidance_cooldown=config.conflict_avoidance_cooldown,
                    placement=placement,
                    retry_policy=self._retry_policy(base_name, predictor),
                    predictor=predictor,
                )
            )
        pool = SchedulerPool(batch_schedulers)
        if config.enable_preemption:
            service = PreemptingOmegaScheduler(
                prefix + "omega-service",
                self.sim,
                self.metrics,
                state,
                self.streams.stream("placement.omega-service"),
                config.service_model,
                ledger=ledger,
                attempt_limit=config.attempt_limit,
                retry_conflicts_at_front=config.retry_conflicts_at_front,
                retry_policy=self._retry_policy("omega-service"),
            )
        else:
            service_predictor = self._predictor()
            service = OmegaScheduler(
                prefix + "omega-service",
                self.sim,
                self.metrics,
                state,
                self.streams.stream("placement.omega-service"),
                config.service_model,
                conflict_mode=config.conflict_mode,
                commit_mode=config.commit_mode,
                attempt_limit=config.attempt_limit,
                retry_conflicts_at_front=config.retry_conflicts_at_front,
                conflict_avoidance_cooldown=config.conflict_avoidance_cooldown,
                placement=placement,
                retry_policy=self._retry_policy(
                    "omega-service", service_predictor
                ),
                predictor=service_predictor,
            )
        self.omega_pool = pool
        self.omega_service = service

        def submit(job: Job) -> None:
            if job.job_type is JobType.BATCH:
                pool.submit(job)
            else:
                service.submit(job)

        self.submit = submit
        self.schedulers = batch_schedulers + [service]
        self.batch_scheduler_names = pool.names
        self.service_scheduler_names = [service.name]

    # ------------------------------------------------------------------
    def _fill_initial_state(self) -> None:
        fill = InitialFill(self.config.preset, self.config.initial_utilization)
        rng = self.streams.stream("initial-fill")
        tasks = fill.generate(rng)
        if len(self.states) == 1:
            populate(self.states[0], tasks, rng, self.sim, self.config.horizon)
            return
        # Partitioned cells: split the standing population proportionally
        # to partition capacity.
        total_cpu = sum(state.cell.total_cpu for state in self.states)
        start = 0
        for state in self.states:
            share = state.cell.total_cpu / total_cpu
            count = round(len(tasks) * share)
            chunk = tasks[start : start + count]
            start += count
            populate(state, chunk, rng, self.sim, self.config.horizon)

    def _start_workload(self) -> None:
        assert self.submit is not None
        config = self.config
        if config.external_arrivals:
            self.generators = {}
            return
        self.generators = {
            JobType.BATCH: WorkloadGenerator(
                self.sim,
                config.preset.batch,
                JobType.BATCH,
                self.streams.stream("workload.batch"),
                self.submit,
                config.horizon,
                rate_factor=config.batch_rate_factor,
            ),
            JobType.SERVICE: WorkloadGenerator(
                self.sim,
                config.preset.service,
                JobType.SERVICE,
                self.streams.stream("workload.service"),
                self.submit,
                config.horizon,
                rate_factor=config.service_rate_factor,
            ),
        }
        for generator in self.generators.values():
            generator.start()

    # ------------------------------------------------------------------
    def cpu_utilization(self) -> float:
        used = sum(state.used_cpu for state in self.states)
        total = sum(state.cell.total_cpu for state in self.states)
        return used / total

    def mem_utilization(self) -> float:
        used = sum(state.used_mem for state in self.states)
        total = sum(state.cell.total_mem for state in self.states)
        return used / total

    def _sample_utilization(self) -> None:
        self.utilization_series.append(
            (self.sim.now, self.cpu_utilization(), self.mem_utilization())
        )

    def _histogram_states(self) -> list[dict]:
        """The collector registry's histograms, serialized for the
        end-of-run ``run.metrics`` trace record.

        Sorted by (name, labels) so the record is independent of
        registry insertion order.
        """
        histograms = [
            metric for metric in self.metrics.registry if isinstance(metric, Histogram)
        ]
        histograms.sort(key=lambda m: (m.name, tuple(sorted(m.labels.items()))))
        return [
            {"name": metric.name, "labels": metric.labels, "state": metric.state()}
            for metric in histograms
        ]

    def check_invariants(self) -> list[str]:
        """Post-run invariant gate over every cell state (and ledger).

        Raises :class:`repro.faults.InvariantViolation` on any
        inconsistency; returns the (empty) violation list otherwise.
        A continuous checker installed via ``invariant_check_interval``
        is reused so its counters keep accumulating.
        """
        checker = self.invariant_checker
        if checker is None:
            checker = CellStateInvariantChecker(self.states, ledger=self.ledger)
        return checker.check(self.sim.now)

    # ------------------------------------------------------------------
    def run(self) -> LightweightResult:
        if not self._built:
            self.build()
        rec = _obs.RECORDER
        if rec.enabled:
            rec.event(
                "run.start",
                t=self.sim.now,
                architecture=self.config.architecture,
                horizon=self.config.horizon,
                seed=self.config.seed,
                cluster=self.config.preset.name,
            )
        self.sim.run(until=self.config.horizon)
        return self.finalize()

    def finalize(self) -> LightweightResult:
        """Post-run bookkeeping: sanitizer end-of-run check, engine-stat
        publication, the ``run.metrics`` trace record and result
        assembly.

        Split from :meth:`run` so a composition driving a *shared*
        event loop (the federation harness) can run the simulator once
        and then finalize each member cell. With an injected simulator,
        engine stats are *not* published here — the owner publishes the
        shared loop's stats exactly once.
        """
        if _san.ACTIVE is not None:
            _san.ACTIVE.final_check(self.states)
        stats = self.sim.stats()
        if not self._external_sim:
            publish_sim_stats(stats)
        rec = _obs.RECORDER
        if rec.enabled:
            rec.event(
                "run.metrics",
                t=self.sim.now,
                histograms=self._histogram_states(),
            )
        return LightweightResult(
            metrics=self.metrics,
            horizon=self.config.horizon,
            batch_scheduler_names=self.batch_scheduler_names,
            service_scheduler_names=self.service_scheduler_names,
            jobs_submitted=self.metrics.jobs_submitted,
            jobs_scheduled=self.metrics.jobs_scheduled_total,
            jobs_abandoned=self.metrics.jobs_abandoned_total,
            final_cpu_utilization=self.cpu_utilization(),
            utilization_series=self.utilization_series,
            events_processed=self.sim.events_processed,
            sim_stats=stats,
            config=self.config,
        )


def run_lightweight(config: LightweightConfig) -> LightweightResult:
    """Build and run one lightweight-simulator experiment."""
    return LightweightSimulation(config).run()


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


def format_table(rows: list[dict], columns: list[str] | None = None) -> str:
    """Render result rows as a fixed-width text table.

    This is how every benchmark prints "the same rows/series the paper
    reports"; floats are rendered with four significant digits.
    """
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    table = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in table))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
        for line in table
    ]
    return "\n".join([header, separator, *body])
