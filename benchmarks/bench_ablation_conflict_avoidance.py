"""Ablation: hot-machine backoff (the section 8 future-work direction).

Paper section 8: "we believe there are some techniques from the
database community that could be applied to reduce the likelihood and
effects of interference for schedulers with long decision times".

This ablation implements one such technique — OCC-style hot-key
avoidance: a scheduler that lost a commit on a machine skips that
machine for a cooldown window — and measures the conflict fraction on
a contention-heavy configuration with the backoff off and on.
"""

from conftest import bench_horizon, bench_scale, figure

COLUMNS = [
    "cooldown_s",
    "conflict_batch",
    "busy_batch",
    "wait_batch",
    "unscheduled_fraction",
]


def test_ablation_hot_machine_backoff(report):
    rows = report(
        lambda: figure(
            "ablation-backoff",
            scale=bench_scale(0.2), horizon=bench_horizon(1.0)
        ),
        "Ablation: OCC hot-machine backoff (16 schedulers, 6x load, 75% fill)",
        columns=COLUMNS,
    )
    by_cooldown = {row["cooldown_s"]: row for row in rows}
    baseline = by_cooldown[0.0]["conflict_batch"]
    # The workload is contention-heavy enough for the ablation to matter.
    assert baseline > 0.01
    # Backing off from hot machines reduces repeated collisions (the
    # effect strengthens with the window up to a sweet spot, ~20 %
    # fewer conflicts at 30 s on this configuration).
    assert by_cooldown[30.0]["conflict_batch"] < baseline
    # The workload still gets scheduled with backoff enabled.
    for row in rows:
        assert row["unscheduled_fraction"] < 0.1
