"""Figure 8: shared-state scheduling while scaling the batch arrival
rate (relative lambda_jobs(batch)), with per-cluster saturation points.

Paper shapes: wait time and busyness rise with the arrival rate;
cluster A saturates around 2.5x the original workload, B around 6x and
C around 9.5x (the dashed vertical lines).
"""

from repro.experiments.omega import figure8_saturation_points

from conftest import bench_horizon, bench_scale, figure

COLUMNS = [
    "cluster",
    "rate_factor",
    "wait_batch",
    "busy_batch",
    "conflict_batch",
    "unscheduled_fraction",
    "utilization",
]


def test_fig08_batch_load_scaling(report, benchmark):
    factors = (1.0, 2.0, 4.0, 6.0, 8.0, 10.0)
    rows = report(
        lambda: figure(
            "fig8",
            factors=factors,
            clusters=("A", "B", "C"),
            horizon=bench_horizon(1.5),
            seed=0,
            scale=bench_scale(0.25),
        ),
        "Figure 8: scaling relative lambda_jobs(batch)",
        columns=COLUMNS,
    )
    points = figure8_saturation_points(rows)
    print(f"saturation points (paper: A~2.5x, B~6x, C~9.5x): {points}")
    benchmark.extra_info["saturation_points"] = {
        k: v for k, v in points.items()
    }
    # Saturation ordering A < B <= C, with A early and C late.
    assert points["A"] is not None and points["A"] <= 4.0
    assert points["B"] is None or points["B"] > points["A"]
    assert points["C"] is None or points["C"] >= 8.0
    for cluster in "ABC":
        series = [row for row in rows if row["cluster"] == cluster]
        assert series[-1]["busy_batch"] > series[0]["busy_batch"]
        assert series[-1]["wait_batch"] > series[0]["wait_batch"]
