"""Figure 9: load-balancing the batch workload across 1-32 Omega
schedulers on cluster B while scaling the batch arrival rate.

Paper shapes: the conflict fraction increases with the number of
schedulers (more opportunities to conflict) and with load, but this is
compensated by falling per-scheduler busyness — the model keeps
scheduling the workload at rates where a single scheduler has long
saturated.
"""

from conftest import bench_horizon, bench_scale, figure

COLUMNS = [
    "num_batch_schedulers",
    "rate_factor",
    "conflict_batch",
    "busy_batch",
    "wait_batch",
    "unscheduled_fraction",
]


def test_fig09_multi_scheduler_scaling(report):
    counts = (1, 2, 4, 8, 16, 32)
    factors = (1.0, 4.0, 8.0)
    rows = report(
        lambda: figure(
            "fig9",
            factors=factors,
            scheduler_counts=counts,
            clusters=("B",),
            horizon=bench_horizon(1.0),
            seed=0,
            scale=bench_scale(0.2),
        ),
        "Figure 9: 1-32 batch schedulers on cluster B",
        columns=COLUMNS,
    )

    def cell(count, factor, column):
        (row,) = [
            r
            for r in rows
            if r["num_batch_schedulers"] == count and r["rate_factor"] == factor
        ]
        return row[column]

    # (a) conflict fraction grows with scheduler count at high load...
    assert cell(32, 8.0, "conflict_batch") > cell(1, 8.0, "conflict_batch")
    # ...and with load for a fixed pool size.
    assert cell(16, 8.0, "conflict_batch") >= cell(16, 1.0, "conflict_batch")
    # (b) per-scheduler busyness falls as the pool grows: at 8x load a
    # single scheduler is saturated while 32 share the work comfortably.
    assert cell(1, 8.0, "busy_batch") > 0.9
    assert cell(32, 8.0, "busy_batch") < 0.5
    # The pool schedules the high-rate workload a single scheduler
    # cannot keep up with.
    assert cell(32, 8.0, "unscheduled_fraction") < cell(1, 8.0, "unscheduled_fraction")
