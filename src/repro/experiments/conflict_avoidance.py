"""Conflict-avoidance experiment: escalate after 3 conflicts or after 1.

``omega-sim conflict-avoidance`` is the executable form of one verdict:
for a starving gang job, the paper's own section 3.6 remedy — switch it
to incremental commits — pays most when applied on the first conflict.
Each point runs the same Figure-8-style Omega operating point (several
gang-committing batch schedulers at a swept arrival-rate factor) twice
with the ``starvation`` retry policy — once with the default
``escalate_after=3`` and once with ``escalate_after=1`` — across
``resilience``-style fault intensities. Rows report the paper's
headline metrics plus wasted work and escalations, and every
``escalate_after=1`` row carries the deltas against its own 3 twin:

* ``d_conflict`` — change in batch conflict fraction (conflicts per
  scheduled job);
* ``d_wasted`` — change in wasted work, measured as busyness minus the
  Figure-12c "no conflicts" productive busyness (conflict-retry rework
  as a busy fraction);
* ``d_abandoned`` — change in abandoned jobs.

Negative deltas mean escalating early helped. Gang commits
(``ALL_OR_NOTHING``) are used at every point so escalation is live —
escalating an incremental job is a no-op. The pair shares one master
seed per point, so the deltas are attributable to ``escalate_after``
alone.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.retry import RetryPolicyConfig
from repro.core.transaction import CommitMode
from repro.experiments.common import LightweightSimulation
from repro.experiments.resilience import BASELINE_FAULTS
from repro.experiments.sweeps import SweepPoint, batch_load_points

#: Figure-8 operating points (relative lambda(batch)) swept by default:
#: one around cluster B's knee and one past it, where section 3.6 says
#: optimistic concurrency starts collapsing into retry storms.
DEFAULT_FACTORS = (4.0, 8.0)

#: Fault-intensity multipliers over the resilience baseline mix: the
#: fault-free operating points plus the hostile regime the acceptance
#: gate measures (intensity >= 5).
DEFAULT_INTENSITIES = (0.0, 5.0)

DEFAULT_NUM_BATCH_SCHEDULERS = 4

#: ``escalate_after`` per point: the default first, then the variant.
ESCALATE_AFTER = (3, 1)

#: The delta columns attached to the variant's rows (1 minus 3).
DELTA_COLUMNS = ("d_conflict", "d_wasted", "d_abandoned")


def conflict_avoidance_columns(world: LightweightSimulation, result) -> dict:
    """The table's additions to the standard row: wasted work and
    escalations."""
    metrics = result.metrics
    return dict(
        wasted_batch=result.busyness("batch")
        - result.noconflict_busyness("batch"),
        escalated=metrics.total("jobs_escalated"),
        invariant_checks=world.invariant_checker.checks_run,
    )


def conflict_avoidance_points(
    factors: Sequence[float] = DEFAULT_FACTORS,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    num_batch_schedulers: int = DEFAULT_NUM_BATCH_SCHEDULERS,
    scale: float = 0.2,
    horizon: float = 2 * 3600.0,
    seed: int = 3,
) -> list[SweepPoint]:
    """The factor x intensity x ``escalate_after`` point grid, the
    3-row first per (factor, intensity) pair."""
    points: list[SweepPoint] = []
    for factor in factors:
        for intensity in intensities:
            for escalate_after in ESCALATE_AFTER:
                retry = RetryPolicyConfig(kind="starvation", escalate_after=escalate_after)
                (config, extra), = batch_load_points(
                    (factor,),
                    cluster="B",
                    num_batch_schedulers=num_batch_schedulers,
                    horizon=horizon,
                    seed=seed,
                    scale=scale,
                    commit_mode=CommitMode.ALL_OR_NOTHING,
                    fault_config=BASELINE_FAULTS.scaled(intensity),
                    retry_policy=retry,
                    invariant_check_interval=horizon / 8.0,
                )
                extra = {
                    "escalate_after": escalate_after,
                    "rate_factor": extra["rate_factor"],
                    "intensity": intensity,
                }
                points.append((config, extra))
    return points


def attach_deltas(rows: list[dict]) -> list[dict]:
    """Add 1-minus-3 delta columns to every ``escalate_after=1`` row.

    Rows are paired by (rate_factor, intensity); the 3-rows carry the
    columns too (as 0.0) so the text table renders one header set.
    """
    default, variant = ESCALATE_AFTER
    base_rows = {
        (row["rate_factor"], row["intensity"]): row
        for row in rows
        if row["escalate_after"] == default
    }
    for row in rows:
        if row["escalate_after"] != variant:
            for column in DELTA_COLUMNS:
                row[column] = 0.0
            continue
        base = base_rows.get((row["rate_factor"], row["intensity"]))
        if base is None:  # pragma: no cover - grid always emits pairs
            continue
        row["d_conflict"] = row["conflict_batch"] - base["conflict_batch"]
        row["d_wasted"] = row["wasted_batch"] - base["wasted_batch"]
        row["d_abandoned"] = row["abandoned"] - base["abandoned"]
    return rows
