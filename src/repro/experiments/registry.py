"""The experiment registry: one declaration per ``omega-sim`` command,
one point runner.

Every figure of the paper's evaluation — and every extension since — is
a grid of configs run through one simulator and flattened to rows. An
:class:`Experiment` declares that grid (or, for the few commands that
run no simulation, a plain ``rows`` function) with everything the front ends
need: extra row columns, command-line arguments, ``--plot`` chart,
determinism gate. :func:`run` executes any of them, sending every point
through :func:`run_point`. ``omega-sim`` (:mod:`repro.experiments.cli`)
and :mod:`repro.analysis.determinism` derive their parsers, validation,
manifests and gate matrix from :data:`EXPERIMENTS`, so an entry there is
all it takes to add a command. Imports point one way: this module
imports the driver modules, never the reverse.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro.core.retry import RETRY_POLICIES
from repro.experiments import (
    ablations,
    conflict_avoidance,
    conflict_modes,
    federation,
    hifi_perf,
    mapreduce,
    omega,
    resilience,
    sweep3d,
    tables,
    workload_char,
)
from repro.experiments.common import LightweightSimulation
from repro.experiments.sweeps import (
    point_label,
    result_row,
    service_decision_points,
)
from repro.federation.config import ROUTING_POLICIES, FederationConfig
from repro.hifi.replay import HighFidelityConfig, HighFidelitySimulation
from repro.obs.recorder import NULL_RECORDER
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.runner import execute_map
from repro.workload.clusters import preset_by_name
from repro.workload.validation import validate_all
from repro.world import RunContext


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------
class Plot(NamedTuple):
    """The ``--plot`` chart of a command: which row columns to draw."""

    series: str | None  # one line per distinct value; None = one line
    x: str
    y: str
    title: str
    log_x: bool = False
    log_y: bool = False


@dataclass(frozen=True)
class Argument:
    """One command-line argument an experiment declares.

    A value argument has a ``default`` and a ``parse`` that turns what
    the user typed (or an already-typed value) into the parameter, with
    a one-line ``ValueError`` outside its range; with the default
    ``False`` it is a switch. ``param`` names the parameter it sets when
    that is not the flag's own name. A switch with ``overrides`` replaces
    those parameters instead (``--smoke``); one with a ``variant`` runs
    that declaration in the command's place.
    """

    flag: str
    help: str
    default: Any = False
    parse: Callable[[Any], Any] | None = None
    choices: Sequence[str] | None = None
    param: str | None = None
    overrides: Mapping[str, Any] | None = None
    variant: "Experiment | None" = None

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class Gate:
    """How the determinism gate runs an experiment: ``overrides`` are
    ``points`` parameters that shrink the grid. ``python -m
    repro.analysis.determinism`` with no ``--experiment`` takes every
    gate whose ``jobs`` is set — a double run, then serial against that
    many workers; ``timeline`` repeats both with sampling at that
    interval; ``kill_resume`` adds a SIGKILLed-and-resumed CLI run."""

    overrides: Mapping[str, Any] = field(default_factory=dict)
    jobs: int = 0
    timeline: float | None = None
    kill_resume: bool = False


@dataclass(frozen=True)
class Experiment:
    """One ``omega-sim`` command.

    A grid declares ``points(**params)``, returning ``(config, extra)``
    pairs; :func:`run_point` turns each into ``result_row`` plus
    ``columns(world, result)``, keeping — when ``table`` is set — only
    the point's extra fields, the ``table`` columns and the added
    columns, in that order. The few commands that run no simulation
    declare ``rows(**params)`` instead. ``finish(rows)`` post-processes the
    table (or raises :class:`~repro.experiments.sweeps.CheckFailed`);
    ``note(rows)`` is a line for stderr.
    """

    name: str
    help: str
    points: Callable[..., list] | None = None
    rows: Callable[..., list[dict]] | None = None
    columns: Callable[[Any, Any], dict] | None = None
    table: tuple[str, ...] = ()
    finish: Callable[[list[dict]], list[dict]] | None = None
    note: Callable[[list[dict]], str] | None = None
    arguments: tuple[Argument, ...] = ()
    plot: Plot | None = None
    gate: Gate | None = None

    def __post_init__(self) -> None:
        if (self.points is None) == (self.rows is None):
            raise ValueError(f"{self.name}: declare exactly one of points / rows")

    @property
    def parameters(self) -> Mapping[str, inspect.Parameter]:
        """The parameters of the grid builder (or ``rows`` function)."""
        return inspect.signature(self.points or self.rows).parameters

    @property
    def smoke(self) -> Mapping[str, Any] | None:
        """The ``--smoke`` overrides, if the command has a smoke variant."""
        smoke = (a.overrides for a in self.arguments if a.flag == "--smoke")
        return next(smoke, None)

    def accepted(self, pool: Mapping[str, Any]) -> dict:
        """The set entries of ``pool`` (horizon, seed, scale, samples,
        timeline_interval) this experiment takes; a grid always
        takes a ``timeline_interval``, which :func:`run` puts on the configs."""
        names = set(self.parameters)
        if self.points is not None:
            names.add("timeline_interval")
        return {
            name: value
            for name, value in pool.items()
            if name in names and value is not None
        }


# ----------------------------------------------------------------------
# The one driver
# ----------------------------------------------------------------------
def run_point(point, recorder=NULL_RECORDER, columns=None, table=()) -> dict:
    """Run one grid point to its row on ``recorder`` (the parallel-worker body).

    The post-run ``check_invariants()`` gate raises on any cell-state
    inconsistency, failing the whole sweep: a fault path that corrupts
    shared state must not silently skew a table.
    """
    config, extra = point
    context = RunContext(recorder)
    if isinstance(config, FederationConfig):
        world = federation.build_federation(config, context)
    elif isinstance(config, HighFidelityConfig):
        world = HighFidelitySimulation(config, context)
    else:
        world = LightweightSimulation(config, context)
    result = world.run()
    world.check_invariants()
    row = result_row(result, **extra)
    added = columns(world, result) if columns is not None else {}
    row.update(added)
    if table:
        row = {name: row[name] for name in dict.fromkeys((*extra, *table, *added))}
    return row


def validated(experiment: Experiment, params: Mapping[str, Any]) -> dict:
    """``params`` with every declared argument parsed and range-checked
    (a one-line ``ValueError`` naming the flag), before any point is
    built: a bad value never costs a simulation."""
    params = dict(params)
    interval = params.get("timeline_interval")
    if interval is not None and not 0 < interval < math.inf:
        raise ValueError(
            f"--timeline-interval must be positive and finite, got {interval}"
        )
    for argument in experiment.arguments:
        name = argument.param or argument.dest
        if argument.parse is not None and name in params:
            try:
                params[name] = argument.parse(params[name])
            except ValueError as exc:
                raise ValueError(f"{argument.flag} {exc}") from None
    return params


def run(
    experiment: Experiment,
    params: Mapping[str, Any] | None = None,
    jobs: int | None = 1,
    store: CheckpointStore | None = None,
    point_timeout: float | None = None,
    recorder=NULL_RECORDER,
) -> list[dict]:
    """Run ``experiment`` with ``params`` and return its rows, tracing
    every simulation to ``recorder``.

    ``params`` are keyword arguments of the experiment's ``points`` (or
    ``rows``) function, plus — for a grid — an optional
    ``timeline_interval``, which lands on every config that does not set
    its own, so pickled points carry it to ``--jobs N`` workers. Points
    fan out over ``jobs`` processes (identical rows either way), are
    logged to the ``--checkpoint`` ``store`` and time out after
    ``point_timeout`` wall seconds (see
    :func:`~repro.recovery.runner.execute_map`). A bad parameter is a
    ``ValueError`` before any point runs.
    """
    params = validated(experiment, params or {})
    if experiment.rows is not None:
        return experiment.rows(**params)
    interval = params.pop("timeline_interval", None)
    points = experiment.points(**params)
    if interval is not None:
        # A federation samples in its cells.
        for cell in (getattr(config, "cell_config", config) for config, _ in points):
            if cell.timeline_interval is None:
                cell.timeline_interval = interval
    rows = execute_map(
        functools.partial(
            run_point, columns=experiment.columns, table=experiment.table
        ),
        points,
        jobs=jobs,
        labels=[point_label(extra) for _, extra in points],
        store=store,
        point_timeout=point_timeout,
        recorder=recorder,
    )
    return experiment.finish(rows) if experiment.finish is not None else rows


# ----------------------------------------------------------------------
# Argument parsers
# ----------------------------------------------------------------------
def _numbers(kind: type, minimum: float, strict=False, many=True) -> Callable:
    """Parser for ``kind`` values, each finite and >= ``minimum`` (> when
    ``strict``): a comma-separated list, or one value when not ``many``.
    Already-typed values pass through the same checks, so library callers
    are validated like the CLI."""

    def one(raw):
        try:
            value = kind(raw)
        except (TypeError, ValueError):
            raise ValueError(f"takes {kind.__name__} values, got {raw!r}") from None
        if not minimum <= value < math.inf or (strict and value == minimum):
            bound = f"{'>' if strict else '>='} {minimum}"
            raise ValueError(f"must be finite and {bound}, got {raw!r}")
        return value

    def parse(raw):
        if not many:
            return one(raw)
        items = raw.split(",") if isinstance(raw, str) else raw
        return tuple(one(item) for item in items)

    return parse


def _cluster(raw) -> str:
    try:
        preset_by_name(raw)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    return raw


def _values(flag, help, default, kind=float, minimum=0.0, strict=False, param=None):
    """A comma-separated-list argument; the default is recorded in the
    form the user would type it."""
    return Argument(
        flag,
        help,
        default=",".join(str(value) for value in default),
        parse=_numbers(kind, minimum, strict),
        param=param,
    )


def _smoke(help: str, **overrides) -> Argument:
    """``--smoke``: a 5% cell for 30 simulated minutes, plus ``overrides``."""
    return Argument(
        "--smoke",
        f"CI smoke variant: {help}",
        overrides={"scale": 0.05, "horizon": 1800.0, **overrides},
    )


def _service_sweep(name: str, help: str, architecture: str, **extras) -> Experiment:
    """Figures 5-7: one architecture under the shared t_job(service)
    sweep (:func:`~repro.experiments.sweeps.service_decision_points`)."""
    points = functools.partial(service_decision_points, architecture)
    return Experiment(name, help, points=points, **extras)


def _wait_plot(title: str) -> Plot:
    return Plot("cluster", "t_job_service", "wait_batch", title, True, True)


#: ``federation --degenerate-gate`` runs this in the command's place: the
#: 1-cell federation and the single-cell omega run as one two-point grid.
DEGENERATE_GATE = Experiment(
    "federation",
    "the --degenerate-gate run",
    points=federation.degenerate_points,
    columns=federation.federation_columns,
    finish=federation.degenerate_check,
    note=lambda rows: (
        "federation: degenerate-baseline gate OK (1-cell federation is "
        "byte-identical to the single-cell omega baseline)"
    ),
)

# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
_DECLARED = (
    Experiment(
        "fig2",
        "workload shares: jobs/tasks/CPU/RAM, batch vs service",
        rows=workload_char.figure2_rows,
    ),
    Experiment(
        "fig3",
        "CDFs of job runtime and inter-arrival time",
        rows=workload_char.figure3_rows,
    ),
    Experiment("fig4", "CDF of tasks per job", rows=workload_char.figure4_rows),
    # Paper section 4.1: single-path busyness grows linearly with t_job and
    # wait times blow up at saturation for *both* job types; multi-path
    # keeps batch on a fast path, but batch still queues behind slow
    # service decisions (head-of-line blocking).
    _service_sweep(
        "fig5a",
        "monolithic single-path: wait time & busyness sweep",
        "monolithic-single",
        plot=_wait_plot("Figure 5a: mean batch wait vs t_job (single-path)"),
    ),
    _service_sweep(
        "fig5b",
        "monolithic multi-path: wait time & busyness sweep",
        "monolithic-multi",
        plot=_wait_plot("Figure 5b: mean batch wait vs t_job(service) (multi-path)"),
    ),
    # Section 4.3: waits comparable to multi-path, but independent batch
    # and service lines — no head-of-line blocking.
    _service_sweep(
        "fig5c",
        "shared-state Omega: wait time & busyness sweep",
        "omega",
        plot=_wait_plot("Figure 5c: mean batch wait vs t_job(service) (shared state)"),
        gate=Gate({"t_jobs": (1.0,)}),
    ),
    # Beyond the paper's plots: Table 1's statically partitioned scheduler
    # under the same sweep, exposing the fragmentation cost (the split
    # is ``repro.schedulers.partitioned.BATCH_SHARE``).
    _service_sweep(
        "partitioned", "statically partitioned scheduler sweep", "partitioned"
    ),
    _service_sweep(
        "fig7",
        "two-level (Mesos): wait, busyness, abandoned jobs",
        "mesos",
        plot=Plot(
            "cluster", "t_job_service", "busy_batch",
            "Figure 7b: batch framework busyness vs t_job(service) (Mesos)",
            log_x=True,
        ),
    ),
    Experiment(
        "fig8",
        "Omega: scaling the batch arrival rate",
        points=omega.load_scaling_points,
        note=lambda rows: (
            "saturation points (relative lambda_batch): "
            f"{omega.figure8_saturation_points(rows)}"
        ),
        plot=Plot(
            "cluster", "rate_factor", "busy_batch",
            "Figure 8b: batch busyness vs relative lambda(batch)",
        ),
        gate=Gate({"factors": (1.0, 4.0)}, jobs=4, timeline=120.0, kill_resume=True),
    ),
    Experiment(
        "fig9",
        "Omega: 1-32 load-balanced batch schedulers",
        points=functools.partial(
            omega.load_scaling_points,
            clusters=("B",),
            scheduler_counts=omega.DEFAULT_SCHEDULER_COUNTS,
        ),
        plot=Plot(
            "num_batch_schedulers", "rate_factor", "conflict_batch",
            "Figure 9a: conflict fraction vs relative lambda(batch)",
        ),
    ),
    Experiment(
        "omega",
        "one Omega run at a single operating point "
        "(pairs with --trace/--timeline-interval)",
        points=omega.single_run_points,
        arguments=(
            Argument(
                "--cluster",
                "cluster preset letter (default B)",
                default="B",
                parse=_cluster,
            ),
            Argument(
                "--rate-factor",
                "relative batch arrival-rate multiplier",
                default=1.0,
                parse=_numbers(float, 0.0, strict=True, many=False),
            ),
            _smoke("5%% cell, 30 simulated minutes (ignores --scale/--hours)"),
        ),
    ),
    Experiment(
        "fig10",
        "busyness surfaces for all five schemes",
        points=sweep3d.figure10_points,
        finish=sweep3d.scheme_last,
    ),
    Experiment(
        "fig11",
        "hifi: service busyness over t_job x t_task (C)",
        points=hifi_perf.figure11_points,
        columns=hifi_perf.hifi_columns,
        table=hifi_perf.HIFI_TABLE,
    ),
    Experiment(
        "fig12",
        "hifi: cluster B sweep w/ conflict fraction",
        points=hifi_perf.figure12_points,
        columns=hifi_perf.hifi_columns,
        table=hifi_perf.HIFI_TABLE,
        plot=Plot(
            None, "t_job_service", "conflict_service",
            "Figure 12b: service conflict fraction vs t_job(service)",
            log_x=True,
        ),
    ),
    Experiment(
        "fig13",
        "hifi: 3 batch schedulers vs 1 (cluster C)",
        points=hifi_perf.figure13_points,
        columns=hifi_perf.figure13_columns,
        table=hifi_perf.HIFI_TABLE,
        note=lambda rows: (
            f"saturation shift: {hifi_perf.figure13_saturation_shift(rows)}"
        ),
    ),
    Experiment(
        "fig14",
        "conflict detection/commit granularity choices",
        points=conflict_modes.figure14_points,
        table=conflict_modes.FIGURE14_TABLE,
        plot=Plot(
            "mode", "t_job_service", "conflict_service",
            "Figure 14a: conflict fraction by detection/commit mode",
            log_x=True, log_y=True,
        ),
        # The one gate through the hifi replay and its scoring placer.
        gate=Gate(jobs=2, timeline=120.0),
    ),
    Experiment(
        "fig15",
        "MapReduce speedup CDFs per policy",
        points=mapreduce.figure15_points,
        columns=mapreduce.speedup_columns,
        table=mapreduce.FIGURE15_TABLE,
    ),
    Experiment(
        "fig16",
        "utilization time series, normal vs max-parallel",
        points=mapreduce.figure16_points,
        columns=mapreduce.utilization_columns,
        table=mapreduce.FIGURE16_TABLE,
    ),
    Experiment(
        "table1", "comparison of scheduling approaches", rows=tables.table1_rows
    ),
    Experiment(
        "table2", "lightweight vs high-fidelity simulator", rows=tables.table2_rows
    ),
    Experiment(
        "ablation-offer",
        "Mesos offer-all vs fair-share offers",
        points=ablations.offer_policy_points,
    ),
    Experiment(
        "ablation-retry",
        "conflict retry at queue head vs tail",
        points=ablations.retry_position_points,
    ),
    Experiment(
        "ablation-util",
        "conflict fraction vs standing utilization",
        points=functools.partial(
            ablations.contention_points,
            field="initial_utilization",
            values=(0.3, 0.6, 0.8),
        ),
        plot=Plot(
            None, "initial_utilization", "conflict_batch",
            "Conflict fraction vs standing utilization",
        ),
    ),
    Experiment(
        "ablation-preemption",
        "priority preemption on vs off",
        points=ablations.preemption_points,
        columns=ablations.preemption_columns,
        table=ablations.PREEMPTION_TABLE,
    ),
    Experiment(
        "ablation-backoff",
        "OCC hot-machine backoff windows",
        # Paper section 8 future work: back off from recently-conflicted
        # machines for this many seconds.
        points=functools.partial(
            ablations.contention_points,
            field="conflict_avoidance_cooldown",
            values=(0.0, 5.0, 30.0),
            column="cooldown_s",
        ),
        plot=Plot(
            None, "cooldown_s", "conflict_batch",
            "Conflict fraction vs hot-machine backoff window",
        ),
    ),
    Experiment(
        "ablation-placement",
        "placement strategy vs conflict fraction",
        # Why the paper's hifi simulator (a deterministic scorer)
        # conflicts more than its randomized lightweight one.
        points=functools.partial(
            ablations.contention_points,
            field="placement_strategy",
            values=("worst-fit", "random-first-fit", "best-fit"),
        ),
    ),
    Experiment(
        "resilience",
        "fault-injected degradation: architecture x fault intensity",
        points=resilience.resilience_points,
        columns=resilience.resilience_columns,
        arguments=(
            _values(
                "--intensities",
                "comma-separated fault-intensity multipliers "
                "(0 = fault-free baseline)",
                resilience.DEFAULT_INTENSITIES,
            ),
            Argument(
                "--policy",
                "Omega conflict-retry policy (immediate reproduces the "
                "historical behavior; see docs/RESILIENCE.md)",
                default="immediate",
                choices=RETRY_POLICIES,
            ),
            # All four architectures with starvation escalation on, so the
            # fault, retry and invariant paths all execute on every build.
            _smoke(
                "tiny cell, short horizon, two intensities, "
                "starvation-escalation policy",
                intensities=(0.0, 5.0),
                policy="starvation",
            ),
        ),
        plot=Plot(
            "architecture", "intensity", "wait_batch",
            "Resilience: mean batch wait vs fault intensity",
        ),
        # The chaos engine, starvation-escalation retries and the invariant
        # checker must all replay exactly.
        gate=Gate(
            {
                "intensities": (0.0, 5.0),
                "architectures": ("mesos", "omega"),
                "policy": "starvation",
            },
            jobs=4,
        ),
    ),
    Experiment(
        "conflict-avoidance",
        "gang-job escalation after 3 conflicts vs after 1 x operating "
        "point x fault intensity",
        points=conflict_avoidance.conflict_avoidance_points,
        columns=conflict_avoidance.conflict_avoidance_columns,
        finish=conflict_avoidance.attach_deltas,
        arguments=(
            _values(
                "--factors",
                "comma-separated relative batch arrival-rate factors "
                "(Figure-8 operating points)",
                conflict_avoidance.DEFAULT_FACTORS,
                strict=True,
            ),
            _values(
                "--intensities",
                "comma-separated fault-intensity multipliers over the "
                "resilience baseline mix (0 = fault-free)",
                conflict_avoidance.DEFAULT_INTENSITIES,
            ),
            _smoke(
                "tiny cell, short horizon, one operating point, "
                "escalate after 3 and after 1",
                factors=(4.0,),
                intensities=(0.0, 5.0),
            ),
        ),
        # Gang commits, early and late escalation and the chaos engine
        # must all replay exactly.
        gate=Gate({"factors": (4.0,), "intensities": (0.0, 5.0)}, jobs=2),
    ),
    Experiment(
        "federation",
        "federated multi-cell Omega: cell count x aggregate staleness x "
        "cell-fault intensity (blackouts, feed partitions, link flaps)",
        points=federation.federation_points,
        columns=federation.federation_columns,
        arguments=(
            _values(
                "--cells",
                "comma-separated federation sizes (member cells)",
                federation.DEFAULT_CELL_COUNTS,
                kind=int,
                minimum=1,
            ),
            _values(
                "--staleness",
                "comma-separated aggregate-view staleness intervals in "
                "simulated seconds (0 = the router reads live digests)",
                federation.DEFAULT_STALENESS,
                param="staleness_values",
            ),
            _values(
                "--intensities",
                "comma-separated cell-fault intensity multipliers over "
                "the federation baseline mix (0 = fault-free)",
                federation.DEFAULT_INTENSITIES,
            ),
            Argument(
                "--policy",
                "front-door routing policy (see docs/FEDERATION.md)",
                default="least-loaded",
                choices=ROUTING_POLICIES,
            ),
            _smoke(
                "tiny cells, short horizon, 1-2 cells, fault-free and "
                "hostile intensities",
                cells=(1, 2),
                staleness_values=(0.0, 120.0),
                intensities=(0.0, 5.0),
            ),
            Argument(
                "--degenerate-gate",
                "run the degenerate-baseline gate instead of the sweep: a "
                "1-cell/zero-staleness/zero-fault federation must reproduce the "
                "single-cell omega table byte-for-byte (exit 1 on any difference)",
                variant=DEGENERATE_GATE,
            ),
        ),
        plot=Plot(
            "cells", "intensity", "wait_batch",
            "Federation: mean batch wait vs cell-fault intensity",
        ),
        # Shared-event-loop cells, routing and health checks, digest
        # publication, blackouts with in-flight loss and backlog migration,
        # partitions, flaps and the accounting invariant.
        gate=Gate(
            {
                "cells": (1, 2),
                "staleness_values": (0.0, 120.0),
                "intensities": (0.0, 5.0),
            },
            jobs=2,
            kill_resume=True,
        ),
    ),
    Experiment(
        "validate",
        "sanity-check the cluster presets",
        rows=lambda: [report.as_row() for report in validate_all()],
    ),
)

#: Every experiment command by name, in ``omega-sim --help`` order.
EXPERIMENTS: dict[str, Experiment] = {
    experiment.name: experiment for experiment in _DECLARED
}
