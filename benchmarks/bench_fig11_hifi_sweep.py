"""Figure 11: high-fidelity simulator — service scheduler busyness over
t_job(service) x t_task(service) on the cluster C trace.

Paper shape: "the scheduler busyness remains low across almost the
entire range for both, which means that the Omega architecture scales
well to long decision times for service jobs" — only the extreme corner
(t_job ~ 100 s or t_task ~ 1 s) pushes busyness up.
"""

from repro.experiments.hifi_perf import make_trace

from conftest import bench_horizon, bench_scale, figure

COLUMNS = [
    "t_job_service",
    "t_task_service",
    "busy_service",
    "conflict_service",
    "unscheduled_fraction",
]


def test_fig11_hifi_service_busyness_surface(report):
    horizon = bench_horizon(2.0)
    trace = make_trace("C", horizon=horizon, seed=0, scale=bench_scale(0.15))
    rows = report(
        lambda: figure(
            "fig11",
            trace=trace,
            t_jobs=(0.1, 1.0, 10.0, 100.0),
            t_tasks=(0.001, 0.01, 0.1, 1.0),
            seed=0,
        ),
        "Figure 11: hifi service busyness over t_job x t_task (cluster C)",
        columns=COLUMNS,
    )
    low_region = [
        row["busy_service"]
        for row in rows
        if row["t_job_service"] <= 10.0 and row["t_task_service"] <= 0.1
    ]
    # Busyness stays low across almost the whole range...
    assert max(low_region) < 0.5
    # ...and grows toward the extreme corner.
    corner = [
        row["busy_service"]
        for row in rows
        if row["t_job_service"] == 100.0 and row["t_task_service"] == 1.0
    ][0]
    assert corner > max(low_region)
