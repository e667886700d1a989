"""Ablation: sensitivity of interference to standing cluster fullness.

The paper fills the cell to ~60 % at simulation start (section 4).
Optimistic concurrency only pays when concurrent transactions rarely
collide; this ablation shows the conflict fraction's strong dependence
on how full the cell is — near-empty cells see almost no conflicts,
near-full ones see frequent ones (placement candidate sets shrink, so
concurrent schedulers pile onto the same machines).
"""

from conftest import bench_horizon, bench_scale, figure

COLUMNS = [
    "initial_utilization",
    "conflict_batch",
    "busy_batch",
    "wait_batch",
    "utilization",
    "unscheduled_fraction",
]


def test_ablation_initial_utilization(report):
    rows = report(
        lambda: figure(
            "ablation-util",
            scale=bench_scale(0.2), horizon=bench_horizon(1.0)
        ),
        "Ablation: conflict fraction vs standing utilization (16 schedulers, 6x load)",
        columns=COLUMNS,
    )
    conflicts = [row["conflict_batch"] for row in rows]
    # Conflicts rise with fullness, steeply at the top end.
    assert conflicts[0] < conflicts[1] < conflicts[2]
    assert conflicts[2] > 3 * max(conflicts[0], 1e-4)
