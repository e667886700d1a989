"""Figure 10: busyness surfaces over t_job(service) x t_task(service)
for the five scheduling schemes on cluster B. Red shading in the paper
(part of the workload unscheduled) appears here as the
``unscheduled_fraction`` column.

Paper shapes: the single-path surface saturates earliest; multi-path
still saturates through head-of-line blocking; Mesos leaves workload
unscheduled in the slow corner; shared-state Omega keeps busyness low
over the widest parameter region; the coarse+gang Omega variant sits
between plain Omega and the rest.
"""

from conftest import bench_horizon, bench_scale, figure

COLUMNS = [
    "scheme",
    "t_job_service",
    "t_task_service",
    "busy_service",
    "busy_batch",
    "unscheduled_fraction",
]


def test_fig10_busyness_surfaces(report):
    scale = bench_scale(0.2)
    rows = report(
        lambda: figure(
            "fig10",
            t_jobs=(0.1, 10.0, 100.0),
            t_tasks=(0.001, 0.01, 0.1),
            cluster="B",
            horizon=bench_horizon(1.0),
            seed=0,
            scale=scale,
        ),
        "Figure 10: busyness over t_job x t_task, five schemes",
        columns=COLUMNS,
    )

    def corner(scheme, column):
        """The slow corner: t_job=100, t_task=0.1."""
        (row,) = [
            r
            for r in rows
            if r["scheme"] == scheme
            and r["t_job_service"] == 100.0
            and r["t_task_service"] == 0.1
        ]
        return row[column]

    # Single-path drowns completely in the slow corner; Omega does not.
    assert corner("monolithic-single", "unscheduled_fraction") > 0.5
    assert corner("omega", "unscheduled_fraction") < 0.1
    # Omega's batch side is untouched by slow service decisions; the
    # monolithic multi-path batch side is not (head-of-line blocking
    # shows up as saturation of the only scheduler).
    assert corner("omega", "busy_batch") < corner("monolithic-multi", "busy_batch")
    # The coarse+gang variant does strictly more work than plain Omega.
    assert corner("omega-coarse-gang", "busy_service") >= corner(
        "omega", "busy_service"
    ) - 0.05
