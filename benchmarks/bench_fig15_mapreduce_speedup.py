"""Figure 15: CDF of potential per-job MapReduce speedups under the
three opportunistic allocation policies, on clusters A, C and D.

Paper shapes: 50-70 % of MapReduce jobs can benefit from acceleration;
max-parallelism gives ~3-4x at the 80th percentile; relative-job-size
"also does quite well"; global-cap "performs almost as well as
max-parallelism in the small, under-utilized cluster D, but achieves
little or no benefit elsewhere" (its 60 % threshold is usually already
exceeded on busy clusters).
"""

from conftest import bench_horizon, bench_scale, figure


def test_fig15_mapreduce_speedups(report):
    rows = report(
        lambda: figure(
            "fig15",
            clusters=("A", "C", "D"),
            horizon=bench_horizon(2.0),
            seed=0,
            scale=bench_scale(0.3),
        ),
        "Figure 15: MapReduce speedup distribution per cluster and policy",
    )

    def row(cluster, policy):
        (match,) = [
            r for r in rows if r["cluster"] == cluster and r["policy"] == policy
        ]
        return match

    for cluster in ("A", "C", "D"):
        maxp = row(cluster, "max-parallelism")
        # A substantial fraction of jobs benefits...
        assert maxp["frac_accelerated"] > 0.4, (cluster, maxp)
        # ...with multi-x speedups at the 80th percentile.
        assert maxp["speedup_p80"] > 1.8, (cluster, maxp)
        # relative-job-size also does quite well.
        rel = row(cluster, "relative-job-size")
        assert rel["speedup_p80"] > 1.5, (cluster, rel)
    # Global cap only helps where utilization sits below its threshold:
    # nearly nothing on busy cluster A, most on lightly-loaded D, with C
    # in between (it hovers around the 60 % line).
    cap_benefit = {
        cluster: row(cluster, "global-cap")["frac_accelerated"]
        for cluster in ("A", "C", "D")
    }
    assert cap_benefit["A"] < 0.1
    assert cap_benefit["D"] > 0.5
    assert cap_benefit["A"] <= cap_benefit["C"] <= cap_benefit["D"]
