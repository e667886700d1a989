"""Ablation: where does a conflicted job go — queue head or tail?

The paper implies immediate retry ("the scheduler resyncs its local
copy of cell state afterwards and, if necessary, re-runs its scheduling
algorithm and tries again"), which this reproduction models as
requeue-at-head. This ablation measures the alternative (tail) on a
conflict-heavy configuration: head retries keep conflicted jobs' wait
profile tight, tail retries trade that for strict FIFO fairness.
"""

from conftest import bench_horizon, bench_scale, figure

COLUMNS = [
    "retry_position",
    "conflict_batch",
    "wait_batch",
    "busy_batch",
    "unscheduled_fraction",
]


def test_ablation_retry_position(report):
    rows = report(
        lambda: figure(
            "ablation-retry",
            scale=bench_scale(0.2), horizon=bench_horizon(1.0)
        ),
        "Ablation: conflicted-job retry at queue head vs tail",
        columns=COLUMNS,
    )
    by_position = {row["retry_position"]: row for row in rows}
    # Both policies schedule the workload; conflicts occur under both.
    for row in rows:
        assert row["unscheduled_fraction"] < 0.1
        assert row["conflict_batch"] > 0.0
    # The policies genuinely differ in outcome (same workload, same
    # seed — only the requeue position changed).
    assert (
        by_position["head"]["conflict_batch"]
        != by_position["tail"]["conflict_batch"]
        or by_position["head"]["wait_batch"] != by_position["tail"]["wait_batch"]
    )
