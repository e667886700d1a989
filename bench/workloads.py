"""The five benchmark workloads: what each one builds, and why.

Importing this module imports the whole narrow surface of ``repro`` the
harness depends on (listed in bench/README.md); the child times that
import as part of set-up.

A workload is a list of *points*. A point builds one world, runs it and
flattens its result into one row; ``arch_sweep`` has 120 of them, the
others one. The seed goes into the configs and nowhere else.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.transaction import CommitMode, ConflictMode  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    ARCHITECTURES,
    LightweightConfig,
    LightweightSimulation,
    geometric_grid,
)
from repro.experiments.federation import (  # noqa: E402
    build_federation,
    federation_points,
    federation_row,
)
from repro.experiments.hifi_perf import make_trace  # noqa: E402
from repro.experiments.sweeps import result_row, service_decision_points  # noqa: E402
from repro.faults import CellStateInvariantChecker  # noqa: E402
from repro.hifi.replay import HighFidelityConfig, HighFidelitySimulation  # noqa: E402
from repro.schedulers.base import DecisionTimeModel  # noqa: E402
from repro.workload.clusters import preset_by_name  # noqa: E402
from repro.workload.job import JobType  # noqa: E402

HOUR = 3600.0

#: Every horizon is the issue's horizon divided by this. The driver
#: makes 114 runs in 3420 s, about 30 s each with set-up, and a run
#: holds at least three repetitions, so one repetition gets ~5 s.
#: Dividing keeps the horizons whole numbers of seconds: with a period
#: (a quarter of the horizon) that is not exactly representable,
#: MetricsCollector.record_busy can loop forever.
HORIZON_DIVISOR = 6


@dataclass(frozen=True)
class Point:
    """One simulation: ``build()`` is set-up, ``finish()`` the row."""

    extra: dict
    build: Callable[[], Any]
    finish: Callable[[Any, Any], dict]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Simulated seconds per point at full size (before ``--quick``).
    horizon: float
    points: Callable[[int, float], list[Point]]
    #: The child times each point's event loop in this many parts, cut
    #: at fixed simulated times (see child.py); a sweep's points are
    #: short enough to be one part each.
    slices: int = 64


def _with_jobs(row: dict, result) -> dict:
    row["jobs_submitted"] = result.jobs_submitted
    row["jobs_scheduled"] = result.jobs_scheduled
    return row


def _lightweight_point(config: LightweightConfig, extra: dict) -> Point:
    def finish(world: LightweightSimulation, result) -> dict:
        row = _with_jobs(result_row(result, **extra), result)
        world.check_invariants()
        return row

    return Point(extra, lambda: LightweightSimulation(config).build(), finish)


def _scaled_b(machines: int):
    preset = preset_by_name("B")
    return preset.scaled(machines / preset.num_machines)


def paper_scale(seed: int, horizon: float) -> list[Point]:
    config = LightweightConfig(
        preset=_scaled_b(10_000),
        architecture="omega",
        horizon=horizon,
        seed=seed,
        service_model=DecisionTimeModel(t_job=1.0),
        conflict_mode=ConflictMode.FINE,
        commit_mode=CommitMode.INCREMENTAL,
    )
    return [_lightweight_point(config, {"cluster": "B", "machines": 10_000})]


def contended(seed: int, horizon: float) -> list[Point]:
    # Retry storms around the odd huge service job decide this cell's
    # cost, which from seed to seed spreads by 16 % for one hour-long
    # run: two independent runs per seed, seeded as arch_sweep's points.
    return [
        _lightweight_point(
            LightweightConfig(
                preset=_scaled_b(3_000),
                architecture="omega",
                horizon=horizon,
                seed=seed * 1000 + replica,
                batch_model=DecisionTimeModel(t_job=1.0),
                service_model=DecisionTimeModel(t_job=30.0),
                batch_rate_factor=6.0,
                num_batch_schedulers=16,
                conflict_mode=ConflictMode.COARSE,
                commit_mode=CommitMode.INCREMENTAL,
                initial_utilization=0.8,
            ),
            {"cluster": "B", "machines": 3_000, "replica": replica},
        )
        for replica in range(2)
    ]


def arch_sweep(seed: int, horizon: float) -> list[Point]:
    t_jobs = geometric_grid(0.1, 100.0, 8)
    swept = [
        (architecture, config, extra)
        for architecture in ARCHITECTURES
        for config, extra in service_decision_points(
            architecture, t_jobs, horizon=horizon, scale=0.2
        )
    ]
    # The figures give all their points one seed, so that every
    # architecture sees the same arrivals. Here that would make a run
    # three distinct arrival streams, one per cluster, and its cost
    # would swing by a third from seed to seed; host time has no use
    # for identical arrivals, so each point gets a seed of its own.
    return [
        _lightweight_point(
            replace(config, seed=seed * 1000 + index),
            {"architecture": architecture, **extra},
        )
        for index, (architecture, config, extra) in enumerate(swept)
    ]


def hifi_replay(seed: int, horizon: float) -> list[Point]:
    extra = {"cluster": "B", "t_job_service": 10.0}

    def build() -> HighFidelitySimulation:
        trace = make_trace("B", horizon, seed=seed, scale=1.0)
        config = HighFidelityConfig(
            trace=trace, seed=seed, service_model=DecisionTimeModel(t_job=10.0)
        )
        return HighFidelitySimulation(config).build()

    def finish(world: HighFidelitySimulation, result) -> dict:
        row = {
            **extra,
            "wait_batch": result.mean_wait(JobType.BATCH),
            "wait_batch_p90": result.p90_wait(JobType.BATCH),
            "wait_service": result.mean_wait(JobType.SERVICE),
            "wait_service_p90": result.p90_wait(JobType.SERVICE),
            "conflict_batch": result.conflict_fraction("batch"),
            "conflict_service": result.conflict_fraction("service"),
            "busy_batch": result.busyness("batch"),
            "busy_service": result.busyness("service"),
            "busy_service_noconflict": result.noconflict_busyness("service"),
            "abandoned": result.jobs_abandoned,
            "unscheduled_fraction": result.unscheduled_fraction,
        }
        # The replay has no check_invariants() of its own.
        CellStateInvariantChecker([world.state], ledger=world.ledger).check(
            world.sim.now
        )
        return _with_jobs(row, result)

    return [Point(extra, build, finish)]


def federation_4cell(seed: int, horizon: float) -> list[Point]:
    ((config, extra),) = federation_points(
        cells=(4,),
        staleness_values=(60.0,),
        intensities=(1.0,),
        policy="least-loaded",
        scale=0.8,
        rate_factor=1.0,
        horizon=horizon,
        seed=seed,
    )

    def finish(world, result) -> dict:
        world.check_invariants()
        return _with_jobs(federation_row(result, **extra), result)

    return [Point(extra, lambda: build_federation(config).build(), finish)]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "paper_scale",
            "north-star shape: one 10k-machine omega cell, where event volume "
            "(mostly single-task completions) dominates and conflicts are near zero",
            24 * HOUR / HORIZON_DIVISOR,
            paper_scale,
        ),
        Workload(
            "contended",
            "16 batch schedulers on a full 3k-machine cell with coarse conflict "
            "detection: sync, placement, commit and retried work take the largest share",
            6 * HOUR / HORIZON_DIVISOR,
            contended,
        ),
        Workload(
            "arch_sweep",
            "how figures 5-10 are made: 120 short points over all five architectures, "
            "so per-point world construction is most of the time",
            0.5 * HOUR / HORIZON_DIVISOR,
            arch_sweep,
            slices=1,
        ),
        Workload(
            "hifi_replay",
            "trace replay through the scoring placer: placement dominates, the event "
            "queue does not, and workload sampling happens in set-up",
            8 * HOUR / HORIZON_DIVISOR,
            hifi_replay,
        ),
        Workload(
            "federation_4cell",
            "four cells on one event loop behind the router, with digests and cell "
            "faults: a deeper shared queue over 4x smaller per-cell arrays",
            18 * HOUR / HORIZON_DIVISOR,
            federation_4cell,
        ),
    )
}
