"""Figure 12: high-fidelity replay of the cluster B trace while varying
t_job(service) — wait times (a), conflict fraction (b) and scheduler
busyness with the "no conflicts" approximation (c).

Paper shapes: once t_job(service) reaches about 10 s the conflict
fraction climbs past 1.0 (a service job needs at least one retry on
average); the 30 s wait-time SLO is missed around the same point even
though the scheduler is not saturated; busyness with conflicts runs
well above the no-conflict approximation (the paper reports ~40 %
higher).
"""

from repro.experiments.hifi_perf import make_trace
from repro.experiments.sweeps import WAIT_TIME_SLO

from conftest import bench_horizon, bench_scale, figure

COLUMNS = [
    "t_job_service",
    "wait_service",
    "wait_service_p90",
    "wait_batch",
    "conflict_service",
    "busy_service",
    "busy_service_noconflict",
]


def test_fig12_hifi_cluster_b(report):
    horizon = bench_horizon(2.0)
    trace = make_trace("B", horizon=horizon, seed=0, scale=bench_scale(0.3))
    rows = report(
        lambda: figure(
            "fig12",
            trace=trace, t_jobs=(0.1, 1.0, 10.0, 100.0), seed=0
        ),
        "Figure 12: hifi cluster B, varying t_job(service)",
        columns=COLUMNS,
    )
    by_t = {row["t_job_service"]: row for row in rows}
    # (b) conflict fraction grows with decision time and crosses ~1.0
    # somewhere in the 10-100 s decade.
    assert by_t[10.0]["conflict_service"] > by_t[0.1]["conflict_service"]
    assert by_t[100.0]["conflict_service"] > 1.0
    # (a) the service wait-time SLO is missed at long decision times.
    assert by_t[100.0]["wait_service"] > WAIT_TIME_SLO
    # (c) conflict rework inflates busyness above the no-conflict
    # approximation once conflicts are common.
    assert by_t[10.0]["busy_service"] > 1.2 * by_t[10.0]["busy_service_noconflict"]
    # Batch is unaffected throughout (shared state, parallel schedulers).
    assert by_t[100.0]["wait_batch"] < 1.0
