"""Federation experiment: multi-cell graceful degradation.

``omega-sim federation`` sweeps cell count x aggregate staleness x
cell-fault intensity and reports how the federated system degrades:
batch/service wait, conflict rate, federation-wide merged wait
percentiles, and the explicit job ledger (migrated, rerouted,
abandoned, lost to blackouts). Every run ends with two gates — the
per-cell invariant checker and the front door's accounting invariant
``submitted == scheduled + pending + abandoned + lost_to_blackout`` —
so a fault path that silently loses a job fails the sweep instead of
flattering the table.

The degenerate baseline is load-bearing: a 1-cell federation at zero
staleness and zero intensity draws byte-identical randomness to the
single-cell ``omega`` experiment. :func:`degenerate_points` puts both
worlds in one grid and :func:`degenerate_check` fails the run unless
their tables match byte-for-byte (``omega-sim federation
--degenerate-gate``, also wired into CI).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.experiments.sweeps import (
    CheckFailed,
    SweepPoint,
    batch_load_points,
    result_row,
)
from repro.federation.config import FederationConfig, FederationFaultConfig
from repro.metrics.ascii_chart import format_table
from repro.sim import RandomStreams
from repro.world import RunContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.harness import FederatedResult, FederatedSimulation

#: One federation sweep point: full config plus extra row fields.
FederationPoint = tuple[FederationConfig, dict]

DEFAULT_CELL_COUNTS = (1, 2, 4)
DEFAULT_STALENESS = (0.0, 60.0)
DEFAULT_INTENSITIES = (0.0, 1.0, 3.0)

#: The intensity-1.0 cell-fault mix. Blackout MTBF is per cell, so at a
#: two-hour horizon each cell sees roughly one blackout; partitions and
#: flaps are likewise per cell. ``FederationFaultConfig.scaled``
#: divides the MTBFs by the intensity.
BASELINE_FED_FAULTS = FederationFaultConfig(
    blackout_mtbf=2 * 3600.0, partition_mtbf=3 * 3600.0, flap_mtbf=3600.0
)

#: The columns shared with :func:`repro.experiments.sweeps.result_row`.
#: Over these, a 1-cell/zero-staleness/zero-intensity federation table
#: must be byte-identical to the single-cell ``omega`` table.
SHARED_COLUMNS = [
    "cluster",
    "rate_factor",
    "wait_batch",
    "wait_service",
    "busy_batch",
    "busy_batch_mad",
    "busy_service",
    "busy_service_mad",
    "conflict_batch",
    "conflict_service",
    "abandoned",
    "unscheduled_fraction",
    "utilization",
]


def build_federation(
    config: FederationConfig, context: RunContext | None = None
) -> FederatedSimulation:
    """Construct a federation with its master streams (on ``context``,
    if given).

    The streams are created here — not inside ``repro.federation``,
    which ``tests/test_source_invariants.py`` holds to the fault-injector
    checks and must only ever *receive* entropy derived from the run's
    master seed.
    """
    from repro.federation.harness import FederatedSimulation

    return FederatedSimulation(
        config, RandomStreams(config.cell_config.seed), context or RunContext()
    )


def federation_columns(world, result) -> dict:
    """What a federated row adds to the standard columns: the
    federation-wide merged wait percentiles (``Histogram.merge_state``)
    and the explicit job ledger. Empty for a single-cell result, which
    keeps no ledger, so the degenerate grid's baseline point can share
    the runner."""
    accounting = getattr(result, "accounting", None)
    if accounting is None:
        return {}
    return dict(
        result.wait_percentiles(),
        submitted=accounting["submitted"],
        scheduled=accounting["scheduled"],
        pending=accounting["pending"],
        lost=accounting["lost_to_blackout"],
        migrated=result.jobs_migrated,
        rerouted=result.jobs_rerouted,
        blackouts=result.blackouts,
        partitions=result.partitions,
        flaps=result.flaps,
    )


def federation_row(result: FederatedResult, **extra) -> dict:
    """Flatten one federated run into a results-table row: the standard
    :func:`~repro.experiments.sweeps.result_row` columns (pooled across
    cells, degenerate-exact for one cell) plus
    :func:`federation_columns`."""
    row = result_row(result, **extra)
    row.update(federation_columns(None, result))
    return row


def federation_points(
    cells: Sequence[int] = DEFAULT_CELL_COUNTS,
    staleness_values: Sequence[float] = DEFAULT_STALENESS,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    policy: str = "least-loaded",
    cluster: str = "B",
    rate_factor: float = 1.0,
    horizon: float = 2 * 3600.0,
    seed: int = 3,
    scale: float = 0.2,
) -> list[FederationPoint]:
    """The cell-count x staleness x intensity grid.

    The per-cell template reuses :func:`~repro.experiments.sweeps.
    batch_load_points` verbatim (same preset scaling and decision-time
    dilation), which is what makes the 1-cell row the exact single-cell
    baseline.
    """
    points: list[FederationPoint] = []
    for num_cells in cells:
        for staleness in staleness_values:
            for intensity in intensities:
                cell_config, _ = batch_load_points(
                    (rate_factor,),
                    cluster=cluster,
                    horizon=horizon,
                    seed=seed,
                    scale=scale,
                    invariant_check_interval=horizon / 8.0,
                )[0]
                config = FederationConfig(
                    cell_config=cell_config,
                    num_cells=num_cells,
                    staleness=staleness,
                    policy=policy,
                    fault_config=BASELINE_FED_FAULTS.scaled(intensity),
                )
                points.append(
                    (
                        config,
                        {
                            "cluster": cluster,
                            "rate_factor": rate_factor,
                            "cells": num_cells,
                            "staleness": staleness,
                            "intensity": intensity,
                            "policy": policy,
                        },
                    )
                )
    return points


# ----------------------------------------------------------------------
# The degenerate-baseline gate
# ----------------------------------------------------------------------
def degenerate_points(
    cluster: str = "B",
    rate_factor: float = 1.0,
    horizon: float = 1800.0,
    seed: int = 0,
    scale: float = 0.05,
) -> list[FederationPoint | SweepPoint]:
    """The 1-cell/zero-staleness/zero-intensity federation point, then
    the equivalent single-cell ``omega`` point."""
    shared = dict(cluster=cluster, horizon=horizon, seed=seed, scale=scale)
    federated = federation_points(
        cells=(1,),
        staleness_values=(0.0,),
        intensities=(0.0,),
        policy="round-robin",
        rate_factor=rate_factor,
        **shared,
    )
    return federated + batch_load_points((rate_factor,), **shared)


def degenerate_check(rows: list[dict]) -> list[dict]:
    """Raise unless the degenerate federation row reproduces the
    single-cell row byte-for-byte over :data:`SHARED_COLUMNS`; returns
    the federation row on success."""
    federated, single = (format_table([row], SHARED_COLUMNS) for row in rows)
    if federated != single:
        raise CheckFailed(
            "degenerate-baseline gate FAILED: the 1-cell zero-staleness "
            "zero-intensity federation table differs from the "
            f"single-cell omega table\n-- federation --\n{federated}\n"
            f"-- single-cell --\n{single}"
        )
    return rows[:1]
