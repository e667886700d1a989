"""Figure 16: time series of cluster C utilization without the
specialized MapReduce scheduler (normal) and in max-parallelism mode.

Paper shape: "Adding resources to a MapReduce job will cause the
cluster's resource utilization to increase ... An effect of this is an
increase in the variability of the cluster's resource utilization."
"""

from conftest import bench_horizon, bench_scale, figure


def test_fig16_utilization_timeseries(report):
    rows = report(
        lambda: figure(
            "fig16",
            cluster="C",
            horizon=bench_horizon(3.0),
            seed=0,
            scale=bench_scale(0.3),
            sample_interval=300.0,
        ),
        "Figure 16: utilization, normal vs max-parallelism",
    )
    by_policy = {row["policy"]: row for row in rows}
    normal = by_policy["normal"]
    maxp = by_policy["max-parallelism"]
    # Opportunistic acceleration raises utilization...
    assert maxp["cpu_util_mean"] > normal["cpu_util_mean"] - 0.01
    # ...and makes it noticeably more variable.
    assert maxp["cpu_util_std"] > normal["cpu_util_std"]
