"""Ablation: Mesos offer-everything vs fair-share-sized offers.

Paper section 4.2 (discussion with the Mesos team): "Mesos could be
extended to make only fair-share offers, although this would complicate
the resource allocator logic, and the quality of the placement
decisions for big or picky jobs would likely decrease, since each
scheduler could only see a smaller fraction of the available
resources."

Expectation: with fair-share offers the slow service framework can no
longer lock the whole cell, so batch starvation largely disappears —
at the cost of each framework seeing fewer resources per offer.
"""

from conftest import bench_horizon, figure

COLUMNS = [
    "offer_policy",
    "t_job_service",
    "wait_batch",
    "busy_batch",
    "abandoned",
    "unscheduled_fraction",
]


def test_ablation_fair_share_offers(report):
    rows = report(
        lambda: figure("ablation-offer", horizon=bench_horizon(2.0)),
        "Ablation: Mesos offer-all vs fair-share offers (pathology workload)",
        columns=COLUMNS,
    )

    def cell(policy, t_job, column):
        (row,) = [
            r
            for r in rows
            if r["offer_policy"] == policy and r["t_job_service"] == t_job
        ]
        return row[column]

    # Fair-share offers defuse the lock-everything pathology: batch
    # busyness and wait at long service decision times drop well below
    # the offer-all case.
    assert cell("fair_share", 100.0, "busy_batch") < cell("all", 100.0, "busy_batch")
    assert cell("fair_share", 100.0, "wait_batch") < cell("all", 100.0, "wait_batch")
    # But the paper's caveat also shows: each framework now sees only a
    # fraction of the cell, so placement quality decreases — at fast
    # decision times the capped batch framework abandons jobs that the
    # offer-all allocator scheduled without trouble.
    assert cell("fair_share", 0.1, "abandoned") >= cell("all", 0.1, "abandoned")
