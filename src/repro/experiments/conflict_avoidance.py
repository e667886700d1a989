"""Conflict-avoidance experiment: predictor on/off under contention.

``omega-sim conflict-avoidance`` measures what the predictive layer
(:mod:`repro.faults.predictor`) buys: each point runs the same
Figure-8-style Omega operating point (several gang-committing batch
schedulers at a swept arrival-rate factor) twice — once with the
reactive ``starvation`` retry policy (predictor **off**, the PR-4
baseline) and once with the ``predictive`` policy plus contention-aware
placement steering (predictor **on**) — across ``resilience``-style
fault intensities. Rows report the paper's headline metrics plus the
predictor counters, and every predictor-on row carries the deltas
against its own off twin:

* ``d_conflict`` — change in batch conflict fraction (conflicts per
  scheduled job);
* ``d_wasted`` — change in wasted work, measured as busyness minus the
  Figure-12c "no conflicts" productive busyness (conflict-retry rework
  as a busy fraction);
* ``d_abandoned`` — change in abandoned jobs.

Negative deltas mean the predictor helped. Gang commits
(``ALL_OR_NOTHING``) are used at every point so the predictive
escalation path is live — escalating an incremental job is a no-op.

The off rows install no predictor object at all, so they exercise the
byte-identical predictor-off code path the determinism gates protect;
the on/off pairing shares one master seed per point, so the deltas are
attributable to the predictor alone.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.transaction import CommitMode
from repro.experiments.common import LightweightSimulation
from repro.experiments.resilience import BASELINE_FAULTS
from repro.experiments.sweeps import SweepPoint, batch_load_points
from repro.faults import FaultConfig
from repro.faults.retry import RetryPolicyConfig

#: Figure-8 operating points (relative lambda(batch)) swept by default:
#: one around cluster B's knee and one past it, where section 3.6 says
#: optimistic concurrency starts collapsing into retry storms.
DEFAULT_FACTORS = (4.0, 8.0)

#: Fault-intensity multipliers over the resilience baseline mix: the
#: fault-free operating points plus the hostile regime the acceptance
#: gate measures (intensity >= 5).
DEFAULT_INTENSITIES = (0.0, 5.0)

DEFAULT_NUM_BATCH_SCHEDULERS = 4

#: The delta columns attached to predictor-on rows (on minus off).
DELTA_COLUMNS = ("d_conflict", "d_wasted", "d_abandoned")


def conflict_avoidance_columns(world: LightweightSimulation, result) -> dict:
    """The table's additions to the standard row: wasted work and the
    predictor counters."""
    metrics = result.metrics
    return dict(
        wasted_batch=result.busyness("batch")
        - result.noconflict_busyness("batch"),
        escalated=metrics.total("jobs_escalated"),
        steered=metrics.total("placements_steered"),
        steer_fallback=metrics.total("steer_fallback_tasks"),
        avoided=metrics.total("predict_conflicts_avoided"),
        incurred=metrics.total("predict_conflicts_incurred"),
        invariant_checks=world.invariant_checker.checks_run,
    )


def conflict_avoidance_points(
    factors: Sequence[float] = DEFAULT_FACTORS,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    num_batch_schedulers: int = DEFAULT_NUM_BATCH_SCHEDULERS,
    scale: float = 0.2,
    horizon: float = 2 * 3600.0,
    seed: int = 3,
    faults: FaultConfig = BASELINE_FAULTS,
) -> list[SweepPoint]:
    """The on/off x factor x intensity point grid, off rows first per
    (factor, intensity) pair so :func:`attach_deltas` can pair them."""
    points: list[SweepPoint] = []
    for factor in factors:
        for intensity in intensities:
            for predictor_on in (False, True):
                retry = RetryPolicyConfig(
                    kind="predictive" if predictor_on else "starvation"
                )
                (config, extra), = batch_load_points(
                    (factor,),
                    cluster="B",
                    num_batch_schedulers=num_batch_schedulers,
                    horizon=horizon,
                    seed=seed,
                    scale=scale,
                    commit_mode=CommitMode.ALL_OR_NOTHING,
                    fault_config=faults.scaled(intensity),
                    retry_policy=retry,
                    invariant_check_interval=horizon / 8.0,
                )
                extra = {
                    "predictor": "on" if predictor_on else "off",
                    "rate_factor": extra["rate_factor"],
                    "intensity": intensity,
                }
                points.append((config, extra))
    return points


def attach_deltas(rows: list[dict]) -> list[dict]:
    """Add on-minus-off delta columns to every predictor-on row.

    Rows are paired by (rate_factor, intensity); off rows carry the
    columns too (as 0.0) so the text table renders one header set.
    """
    off_rows = {
        (row["rate_factor"], row["intensity"]): row
        for row in rows
        if row["predictor"] == "off"
    }
    for row in rows:
        if row["predictor"] != "on":
            for column in DELTA_COLUMNS:
                row[column] = 0.0
            continue
        off = off_rows.get((row["rate_factor"], row["intensity"]))
        if off is None:  # pragma: no cover - grid always emits pairs
            continue
        row["d_conflict"] = row["conflict_batch"] - off["conflict_batch"]
        row["d_wasted"] = row["wasted_batch"] - off["wasted_batch"]
        row["d_abandoned"] = row["abandoned"] - off["abandoned"]
    return rows
