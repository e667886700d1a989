"""Figures 8 (workload scaling) and 9 (multiple batch schedulers), and
the single ``omega`` operating point.

Expected shapes (paper section 4.3):

* Fig 8 — wait time and busyness rise with the batch arrival rate;
  clusters saturate in the order A (~2.5x) < B (~6x) < C (~9.5x).
* Fig 9 — the conflict fraction increases with the number of batch
  schedulers (more opportunities to conflict), but per-scheduler
  busyness drops, so the model scales to higher loads.
"""

from __future__ import annotations

from repro.experiments.common import DAY
from repro.experiments.sweeps import (
    DEFAULT_SWEEP_CLUSTERS,
    SweepPoint,
    batch_load_points,
    saturation_point,
)

DEFAULT_RATE_FACTORS = (1.0, 2.0, 4.0, 6.0, 8.0, 10.0)
DEFAULT_SCHEDULER_COUNTS = (1, 2, 4, 8, 16, 32)


def load_scaling_points(
    factors=DEFAULT_RATE_FACTORS,
    clusters=DEFAULT_SWEEP_CLUSTERS,
    scheduler_counts=(1,),
    horizon: float = DAY,
    seed: int = 0,
    scale: float = 1.0,
) -> list[SweepPoint]:
    """Figures 8 and 9: the batch arrival rate scaled on each cluster,
    with the batch workload load-balanced over each scheduler count.

    The paper's Figure 8 plots cluster B with one batch scheduler;
    running all three clusters also recovers the quoted saturation
    points (A ~2.5x, B ~6x, C ~9.5x), reported via
    :func:`figure8_saturation_points`. Figure 9 is cluster B over 1-32
    schedulers.
    """
    return [
        point
        for cluster in clusters
        for count in scheduler_counts
        for point in batch_load_points(
            factors,
            cluster=cluster,
            num_batch_schedulers=count,
            horizon=horizon,
            seed=seed,
            scale=scale,
        )
    ]


def single_run_points(
    cluster: str = "B",
    rate_factor: float = 1.0,
    horizon: float = DAY,
    seed: int = 0,
    scale: float = 1.0,
) -> list[SweepPoint]:
    """One Omega run at a single operating point: the right shape for
    recording a time-resolved trace (``--trace`` plus
    ``--timeline-interval``) and inspecting it with ``omega-sim trace``
    / ``perfetto`` / ``report``.
    """
    return batch_load_points(
        (rate_factor,), cluster=cluster, horizon=horizon, seed=seed, scale=scale
    )


def figure8_saturation_points(rows: list[dict]) -> dict[str, float | None]:
    """Per-cluster saturation factors (the dashed vertical lines)."""
    points: dict[str, float | None] = {}
    for cluster in sorted({row["cluster"] for row in rows}):
        cluster_rows = [row for row in rows if row["cluster"] == cluster]
        points[cluster] = saturation_point(cluster_rows)
    return points
