"""Figure 14: the cost of coarse-grained conflict detection and
all-or-nothing (gang) commits, on the cluster C trace.

Paper shapes: gang scheduling roughly doubles the conflict fraction
relative to incremental commits ("retries now must re-place all
tasks"); coarse-grained sequence-number detection adds spurious
conflicts and pushes conflict rate and busyness up by 2-3x. Incremental
transactions with fine-grained detection should be the default.
"""

from repro.experiments.hifi_perf import make_trace

from conftest import bench_horizon, bench_scale, figure

COLUMNS = [
    "mode",
    "t_job_service",
    "conflict_service",
    "busy_service",
    "wait_service",
    "unscheduled_fraction",
]


def test_fig14_conflict_detection_and_gang(report):
    horizon = bench_horizon(1.5)
    trace = make_trace("C", horizon=horizon, seed=0, scale=bench_scale(0.3))
    rows = report(
        lambda: figure("fig14", trace=trace, t_jobs=(1.0, 10.0, 60.0), seed=0),
        "Figure 14: {coarse,fine} x {gang,incremental}",
        columns=COLUMNS,
    )

    def conflicts(mode, t_job=60.0):
        (row,) = [
            r for r in rows if r["mode"] == mode and r["t_job_service"] == t_job
        ]
        return row["conflict_service"]

    fine_incr = conflicts("Fine/Incr.")
    fine_gang = conflicts("Fine/Gang")
    coarse_incr = conflicts("Coarse/Incr.")
    coarse_gang = conflicts("Coarse/Gang")
    print(
        f"conflicts/job at t_job=60s: fine/incr={fine_incr:.2f} "
        f"fine/gang={fine_gang:.2f} coarse/incr={coarse_incr:.2f} "
        f"coarse/gang={coarse_gang:.2f}"
    )
    # Gang commits conflict more than incremental under both detectors.
    assert fine_gang >= fine_incr
    # Coarse-grained detection multiplies conflicts (spurious rejections).
    assert coarse_incr > 1.5 * fine_incr
    # The combination is the worst of all four.
    assert coarse_gang >= max(fine_incr, fine_gang) - 0.05
    assert coarse_gang > 1.5 * fine_incr
