"""Ablation: placement strategy vs interference under shared state.

The paper attributes part of the high-fidelity simulator's higher
conflict rates to its placement algorithm (deterministic scoring)
versus the lightweight simulator's randomized first fit (section 5:
"the lightweight simulator runs experience less interference").

This ablation isolates the effect inside the lightweight simulator: the
same contention-heavy workload placed with worst fit (all schedulers
converge on the emptiest machines), best fit (all converge on the
fullest feasible machines) and randomized first fit. The finding —
*any* deterministic ordering makes concurrent schedulers collide more
than randomization does, because they walk the same candidate list —
is exactly why the paper's randomized choice keeps optimistic
concurrency cheap.
"""

from conftest import bench_horizon, bench_scale, figure

COLUMNS = [
    "placement_strategy",
    "conflict_batch",
    "busy_batch",
    "wait_batch",
    "unscheduled_fraction",
]


def test_ablation_placement_strategy(report):
    rows = report(
        lambda: figure(
            "ablation-placement",
            scale=bench_scale(0.2), horizon=bench_horizon(1.0)
        ),
        "Ablation: placement strategy vs conflict fraction",
        columns=COLUMNS,
    )
    by_strategy = {row["placement_strategy"]: row for row in rows}
    random_conflicts = by_strategy["random-first-fit"]["conflict_batch"]
    # Randomized first fit (the paper's lightweight algorithm) conflicts
    # least: deterministic orders pile concurrent schedulers onto the
    # same machines, whichever end of the fullness spectrum they sort by.
    assert by_strategy["best-fit"]["conflict_batch"] > random_conflicts
    assert by_strategy["worst-fit"]["conflict_batch"] > random_conflicts
    for row in rows:
        assert row["unscheduled_fraction"] < 0.1
