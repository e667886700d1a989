"""Figure 13: splitting the batch workload across three high-fidelity
batch schedulers while sweeping t_job(batch), on the cluster C trace.

Paper shapes: three load-balanced batch schedulers move the batch
saturation point by roughly 3x (the paper reports 4 s -> 15 s) while
the conflict fraction stays low (around 0.1 at moderate decision
times) and all schedulers share the work evenly.
"""

from repro.experiments.hifi_perf import figure13_saturation_shift
from repro.experiments.sweeps import WAIT_TIME_SLO
from repro.hifi.trace import synthesize_trace
from repro.workload.clusters import preset_by_name

from conftest import bench_horizon, bench_scale, figure

COLUMNS = [
    "num_batch_schedulers",
    "t_job_batch",
    "wait_batch",
    "wait_batch_p90",
    "conflict_batch",
    "busy_batch",
    "unscheduled_fraction",
]


def test_fig13_three_batch_schedulers(report, benchmark):
    horizon = bench_horizon(1.5)
    # Service arrivals scale with the cell here, unlike make_trace's.
    trace = synthesize_trace(
        preset_by_name("C").scaled(bench_scale(0.5)), horizon=horizon, seed=0
    )
    t_jobs = (0.5, 1.0, 2.0, 4.0, 8.0, 15.0)
    rows = report(
        lambda: figure(
            "fig13",
            trace=trace, t_jobs=t_jobs, scheduler_counts=(1, 3), seed=0
        ),
        "Figure 13: 1 vs 3 hifi batch schedulers, varying t_job(batch)",
        columns=COLUMNS,
    )

    def slo_crossing(count):
        for row in rows:
            if row["num_batch_schedulers"] == count and row["wait_batch"] > WAIT_TIME_SLO:
                return row["t_job_batch"]
        return None

    single_cross = slo_crossing(1)
    triple_cross = slo_crossing(3)
    shift = figure13_saturation_shift(rows)
    print(
        f"30s-SLO crossing: 1 scheduler at t_job~{single_cross}, "
        f"3 schedulers at t_job~{triple_cross}; saturation shift: {shift}"
    )
    benchmark.extra_info["slo_crossing"] = {"1": single_cross, "3": triple_cross}
    # Load balancing moves the SLO-violation point right by ~2-4x.
    assert single_cross is not None and triple_cross is not None
    assert triple_cross >= 1.8 * single_cross
    # Conflict fraction stays moderate at decision times below the
    # single scheduler's saturation point.
    moderate = [
        row["conflict_batch"]
        for row in rows
        if row["num_batch_schedulers"] == 3 and row["t_job_batch"] <= single_cross
    ]
    assert max(moderate) < 0.5
    # All three schedulers take part in the work. (Shares are only
    # roughly even: hash routing balances job *counts*, but the heavy
    # tail of tasks-per-job makes per-shard decision time lumpy.)
    (sample,) = [
        row
        for row in rows
        if row["num_batch_schedulers"] == 3 and row["t_job_batch"] == 2.0
    ]
    busy = [sample[f"busy_batch_{i}"] for i in range(3)]
    assert min(busy) > 0.02
    assert max(busy) < 10 * min(busy)
