"""Resilience experiment: degradation curves under injected faults.

``omega-sim resilience`` sweeps fault intensity against scheduler
architecture. Every run injects the same deterministic fault mix —
machine failure/repair, scheduler crash/restart, commit latency spikes
and commit drops (see :mod:`repro.faults`) — scaled by an intensity
knob, and reports how each architecture's headline metrics (job wait
time, scheduler busyness, conflict fraction, abandonment) degrade as
the environment gets hostile. This probes the paper's availability
claims head-on: Omega's optimistically-concurrent shared state means
"there is no inter-scheduler head of line blocking", so a crashed or
slow scheduler should only hurt its own workload, while the monolithic
architectures serialize everything behind the failure.

Intensity 0 rows install no fault machinery at all and are byte-
identical to the corresponding fault-free experiment at the same seed
(tested in ``tests/experiments/test_resilience.py``). Every run also
carries a continuous :class:`~repro.invariants.CellStateInvariantChecker`
plus a post-run gate, so a fault path that corrupts shared cell state
fails the experiment instead of silently skewing the numbers.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.retry import RetryPolicyConfig
from repro.experiments.common import LightweightConfig, LightweightSimulation
from repro.experiments.sweeps import SweepPoint
from repro.faults import FaultConfig
from repro.workload.clusters import CLUSTER_B

#: The architectures compared in the degradation table. The single-path
#: monolithic variant is omitted: it differs from multi-path only in
#: decision-time modeling, which fault injection does not exercise.
RESILIENCE_ARCHITECTURES = ("monolithic-multi", "partitioned", "mesos", "omega")

#: Default intensity grid: the fault-free baseline plus three hostility
#: levels (nominal, degraded, hostile).
DEFAULT_INTENSITIES = (0.0, 1.0, 3.0, 10.0)

#: The intensity-1.0 fault mix. Machine MTBF is per machine, so the
#: cell-wide failure rate scales with cell size; scheduler crash MTBF
#: is per scheduler. ``FaultConfig.scaled`` divides the MTBFs and
#: multiplies the commit-fault probabilities by the intensity.
BASELINE_FAULTS = FaultConfig(
    machine_mtbf=150 * 3600.0,
    crash_mtbf=4 * 3600.0,
    commit_delay_prob=0.02,
    commit_drop_prob=0.01,
)


def resilience_columns(world: LightweightSimulation, result) -> dict:
    """The degradation table's additions to the standard row: fault and
    invariant-gate counters."""
    metrics = result.metrics
    return dict(
        machine_failures=metrics.machine_failures,
        crashes=metrics.total("crashes"),
        commit_drops=metrics.total("commits_dropped"),
        escalated=metrics.total("jobs_escalated"),
        abandoned_conflict=metrics.abandoned_for_reason("conflict-cap"),
        invariant_checks=world.invariant_checker.checks_run,
    )


def resilience_points(
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    architectures: Sequence[str] = RESILIENCE_ARCHITECTURES,
    policy: str | None = "immediate",
    scale: float = 0.2,
    horizon: float = 2 * 3600.0,
    seed: int = 3,
) -> list[SweepPoint]:
    """Degradation grid: architectures x fault intensities.

    ``policy`` selects the Omega conflict-retry policy (one of
    :data:`repro.core.retry.RETRY_POLICIES`, or ``None`` for the
    built-in default). The default "immediate" policy reproduces the
    historical retry behavior exactly, which keeps the intensity-0 rows
    byte-identical to the fault-free experiments; pass "starvation" to
    study the section 3.6 remedy under fault load.

    Every point shares one master seed so the fault-free workload is
    identical across the whole table — degradation is attributable to
    the injected faults alone.
    """
    preset = CLUSTER_B.scaled(scale)
    retry = RetryPolicyConfig(kind=policy) if policy is not None else None
    points: list[SweepPoint] = []
    for architecture in architectures:
        for intensity in intensities:
            config = LightweightConfig(
                preset=preset,
                architecture=architecture,
                horizon=horizon,
                seed=seed,
                fault_config=BASELINE_FAULTS.scaled(intensity),
                retry_policy=retry,
                invariant_check_interval=horizon / 8.0,
            )
            points.append(
                (config, {"architecture": architecture, "intensity": intensity})
            )
    return points
