"""Figure 7: two-level scheduling (Mesos) — job wait time (a),
scheduler busyness (b) and unscheduled/abandoned jobs (c) as a function
of t_job(service).

Paper shapes: because the simple allocator offers *all* available
resources to one framework at a time, long service decisions lock the
cell; batch frameworks retry against scrap offers, so batch busyness
inflates far beyond the shared-state case, batch waits grow, and
above-average-size batch jobs burn out their retry budget and get
abandoned (only under Mesos).

Two benches: the cluster-preset sweep the paper plots, and the
distilled pathology workload where the abandonment mechanism is visible
within a two-hour horizon.
"""

from repro.experiments.mesos import pathology_points
from repro.experiments.registry import run_point

from conftest import bench_horizon, bench_scale, figure

COLUMNS = [
    "cluster",
    "t_job_service",
    "wait_batch",
    "wait_service",
    "busy_batch",
    "busy_service",
    "abandoned",
    "unscheduled_fraction",
]


def test_fig07_mesos_sweep(report):
    rows = report(
        lambda: figure(
            "fig7",
            t_jobs=(0.01, 0.1, 1.0, 10.0, 100.0),
            clusters=("A", "B", "C"),
            horizon=bench_horizon(1.5),
            seed=0,
            scale=bench_scale(0.25),
        ),
        "Figure 7: Mesos-style two-level scheduling (preset clusters)",
        columns=COLUMNS,
    )
    for cluster in "ABC":
        series = [row for row in rows if row["cluster"] == cluster]
        # Batch performance degrades as service decisions slow down.
        assert series[-1]["busy_batch"] >= series[0]["busy_batch"] - 0.02
        assert series[-1]["wait_batch"] >= series[0]["wait_batch"]


def test_fig07c_abandonment_pathology(report):
    rows = report(
        lambda: [
            run_point(point)
            for point in pathology_points(
                t_jobs=(0.1, 10.0, 100.0),
                architectures=("mesos", "omega"),
                horizon=bench_horizon(2.0),
                attempt_limit=200,
            )
        ],
        "Figure 7 (pathology workload): Mesos vs Omega on identical jobs",
        columns=["architecture", "t_job_service", "wait_batch", "busy_batch",
                 "abandoned", "unscheduled_fraction"],
    )
    mesos = {row["t_job_service"]: row for row in rows if row["architecture"] == "mesos"}
    omega = {row["t_job_service"]: row for row in rows if row["architecture"] == "omega"}
    # The pathology: batch busyness inflates ~4x under Mesos at long
    # service decision times; Omega is flat and abandons nothing.
    assert mesos[100.0]["busy_batch"] > 2 * omega[100.0]["busy_batch"]
    assert mesos[100.0]["abandoned"] > 0
    assert omega[100.0]["abandoned"] == 0
    assert mesos[0.1]["abandoned"] == 0
