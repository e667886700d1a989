"""Figures 15 and 16: the specialized MapReduce scheduler case study.

Expected shapes (paper section 6.2): 50-70 % of MapReduce jobs speed up
under opportunistic resources; the 80th-percentile speedup is ~3-4x for
max-parallelism; relative-job-size is close behind; global-cap only
helps on the small, lightly-loaded cluster D. Utilization under
max-parallelism runs higher and noticeably more variable (Figure 16).

Both figures are grids of Omega runs whose config names a MapReduce
policy: :class:`~repro.experiments.common.LightweightSimulation` then
adds the specialized scheduler and its job stream to the cell.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.experiments.common import DAY, LightweightConfig
from repro.workload.clusters import preset_by_name

DEFAULT_CLUSTERS = ("A", "C", "D")

#: Figure 15's policies, by :data:`repro.mapreduce.policies.POLICIES` name.
FIGURE15_POLICIES = ("max-parallelism", "relative-job-size", "global-cap")

#: Standing utilization for the busy clusters in the MR experiments.
#: The paper notes cluster utilization on A and C "is usually above the
#: threshold" of the global-cap policy (60 %); D is lightly loaded and
#: keeps its preset fill (25 %).
BUSY_CLUSTER_FILL = 0.65

FIGURE15_TABLE = ("jobs", "frac_accelerated", "speedup_p50", "speedup_p80", "speedup_p95")
FIGURE16_TABLE = ("samples", "cpu_util_mean", "cpu_util_std", "mem_util_mean", "mem_util_std")


def _mr_fill(cluster: str) -> float | None:
    return None if cluster.upper().startswith("D") else BUSY_CLUSTER_FILL


def _config(cluster, policy, horizon, seed, scale, sample_interval) -> LightweightConfig:
    """One Omega run of ``cluster`` plus the MapReduce scheduler under
    ``policy``; utilization is sampled every ``sample_interval`` seconds."""
    preset = preset_by_name(cluster)
    if scale != 1.0:
        preset = preset.scaled(scale)
    return LightweightConfig(
        preset=preset,
        architecture="omega",
        horizon=horizon,
        seed=seed,
        utilization_sample_interval=sample_interval,
        initial_utilization=_mr_fill(cluster),
        mapreduce_policy=policy,
    )


def figure15_points(
    clusters: Sequence[str] = DEFAULT_CLUSTERS,
    policies: Sequence[str] = FIGURE15_POLICIES,
    horizon: float = DAY,
    seed: int = 0,
    scale: float = 1.0,
) -> list:
    """Per-job speedup distribution per cluster and policy. The figure
    reads no utilization, but its runs keep the 300 s sampler: a trace's
    engine statistics count the sampler's events."""
    return [
        (
            _config(cluster, policy, horizon, seed, scale, 300.0),
            {"cluster": cluster, "policy": policy},
        )
        for cluster in clusters
        for policy in policies
    ]


def speedup_columns(world, result) -> dict:
    """Figure 15's columns: the realized speedups of the MapReduce
    scheduler's grants."""
    (scheduler,) = (s for s in world.schedulers if s.name == "mapreduce")
    speedups = np.asarray(scheduler.speedups)
    if len(speedups) == 0:
        return {"jobs": 0, **dict.fromkeys(FIGURE15_TABLE[1:], float("nan"))}
    return {
        "jobs": len(speedups),
        "frac_accelerated": float(np.mean(speedups > 1.001)),
        **{f"speedup_p{q}": float(np.percentile(speedups, q)) for q in (50, 80, 95)},
    }


def figure16_points(
    cluster: str = "C",
    horizon: float = DAY,
    seed: int = 0,
    scale: float = 1.0,
    sample_interval: float = 300.0,
) -> list:
    """Utilization time series, normal vs max-parallelism."""
    return [
        (
            _config(cluster, policy, horizon, seed, scale, sample_interval),
            {"policy": policy},
        )
        for policy in ("normal", "max-parallelism")
    ]


def utilization_columns(world, result) -> dict:
    """Figure 16's dispersion summary (max-parallelism should be higher
    and more variable)."""
    cpu = np.array([u for _, u, _ in result.utilization_series])
    mem = np.array([u for _, _, u in result.utilization_series])
    return {
        "samples": len(cpu),
        "cpu_util_mean": float(cpu.mean()) if len(cpu) else float("nan"),
        "cpu_util_std": float(cpu.std()) if len(cpu) else float("nan"),
        "mem_util_mean": float(mem.mean()) if len(mem) else float("nan"),
        "mem_util_std": float(mem.std()) if len(mem) else float("nan"),
    }
