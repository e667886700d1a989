"""Figure 10: busyness surfaces over t_job(service) x t_task(service)
for the five scheduling schemes, on cluster B.

Expected shapes (paper section 4.4): the monolithic single-path surface
saturates earliest (its decision time applies to every job); multi-path
improves but still saturates through head-of-line blocking; Mesos
degrades sharply with long decision times and leaves workload
unscheduled (red shading); shared-state Omega tolerates the widest
region; the coarse-grained + gang-scheduling variant of Omega is
noticeably worse than plain Omega but still better than Mesos.
"""

from __future__ import annotations

from repro.core.transaction import CommitMode, ConflictMode
from repro.experiments.common import DAY
from repro.experiments.sweeps import SweepPoint, surface_points

DEFAULT_T_JOBS = (0.1, 1.0, 10.0, 100.0)
DEFAULT_T_TASKS = (0.001, 0.01, 0.1, 1.0)

#: The five panels of Figure 10, in order.
SCHEMES = (
    ("monolithic-single", ConflictMode.FINE, CommitMode.INCREMENTAL),
    ("monolithic-multi", ConflictMode.FINE, CommitMode.INCREMENTAL),
    ("mesos", ConflictMode.FINE, CommitMode.INCREMENTAL),
    ("omega", ConflictMode.FINE, CommitMode.INCREMENTAL),
    ("omega-coarse-gang", ConflictMode.COARSE, CommitMode.ALL_OR_NOTHING),
)


def figure10_points(
    t_jobs=DEFAULT_T_JOBS,
    t_tasks=DEFAULT_T_TASKS,
    cluster: str = "B",
    horizon: float = DAY,
    seed: int = 0,
    scale: float = 1.0,
    schemes=SCHEMES,
    **config_kwargs,
) -> list[SweepPoint]:
    """All five scheme surfaces; the scheme label lands in each row.

    The full scheme x t_job x t_task grid is one flat point list, so
    ``--jobs N`` parallelizes across the entire figure, not per panel.
    """
    points = []
    for label, conflict_mode, commit_mode in schemes:
        architecture = "omega" if label.startswith("omega") else label
        for config, extra in surface_points(
            architecture,
            t_jobs,
            t_tasks,
            cluster=cluster,
            horizon=horizon,
            seed=seed,
            scale=scale,
            conflict_mode=conflict_mode,
            commit_mode=commit_mode,
            **config_kwargs,
        ):
            points.append((config, {**extra, "scheme": label}))
    return points


def scheme_last(rows: list[dict]) -> list[dict]:
    """The table's historical column order: the scheme label closes
    each row."""
    for row in rows:
        row["scheme"] = row.pop("scheme")
    return rows
