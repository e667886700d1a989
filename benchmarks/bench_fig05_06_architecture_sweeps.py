"""Figures 5 and 6: job wait time (5) and scheduler busyness (6) as a
function of t_job(service), for the monolithic single-path (a),
monolithic multi-path (b) and shared-state (c) architectures, on
clusters A, B and C.

Each run yields both figures' series, so the three benchmarks below
print the wait-time columns (Figure 5) and busyness columns (Figure 6)
from the same sweep.

Paper shapes:

* (a) single-path: busyness scales linearly with t_job and the
  scheduler saturates; wait times for batch and service track each
  other because all jobs share the slow path;
* (b) multi-path: batch wait and busyness drop sharply, but batch jobs
  still get stuck behind slow service decisions (head-of-line
  blocking);
* (c) shared state: batch and service lines are independent; batch
  wait does not grow with t_job(service).
"""

from conftest import bench_horizon, bench_scale, figure

T_JOBS = (0.01, 0.1, 1.0, 10.0, 100.0)
COLUMNS = [
    "cluster",
    "t_job_service",
    "wait_batch",
    "wait_service",
    "busy_batch",
    "busy_batch_mad",
    "busy_service",
    "unscheduled_fraction",
]


def _kwargs():
    return {
        "t_jobs": T_JOBS,
        "clusters": ("A", "B", "C"),
        "horizon": bench_horizon(2.0),
        "seed": 0,
        "scale": bench_scale(0.25),
    }


def _series(rows, cluster, column):
    return [row[column] for row in rows if row["cluster"] == cluster]


def test_fig05a_06a_monolithic_single_path(report):
    rows = report(
        lambda: figure("fig5a", **_kwargs()),
        "Figures 5a/6a: monolithic single-path, wait time + busyness",
        columns=COLUMNS,
    )
    for cluster in "ABC":
        busyness = _series(rows, cluster, "busy_batch")
        grows = all(b >= a - 0.01 for a, b in zip(busyness, busyness[1:]))
        assert grows, f"busyness grows with t_job: {busyness}"
        assert busyness[-1] > 0.9, "saturated at t_job=100s"
        waits = _series(rows, cluster, "wait_batch")
        assert waits[-1] > 100 * max(waits[0], 1e-3), "wait blows up"


def test_fig05b_06b_monolithic_multi_path(report):
    rows = report(
        lambda: figure("fig5b", **_kwargs()),
        "Figures 5b/6b: monolithic multi-path, wait time + busyness",
        columns=COLUMNS,
    )
    single = figure("fig5a", **{**_kwargs(), "t_jobs": (100.0,)})
    for cluster in "ABC":
        multi_wait = _series(rows, cluster, "wait_batch")[-1]
        single_wait = _series(single, cluster, "wait_batch")[-1]
        assert multi_wait < single_wait / 10, "fast path rescues batch"
        # Head-of-line blocking remains: batch wait grows with
        # t_job(service) even though batch decisions stayed fast.
        waits = _series(rows, cluster, "wait_batch")
        assert waits[-1] > 3 * max(waits[0], 1e-3)


def test_fig05c_06c_shared_state(report):
    rows = report(
        lambda: figure("fig5c", **_kwargs()),
        "Figures 5c/6c: shared-state (Omega), wait time + busyness",
        columns=COLUMNS,
    )
    for cluster in "ABC":
        waits = _series(rows, cluster, "wait_batch")
        busy = _series(rows, cluster, "busy_batch")
        # No head-of-line blocking: the batch lines are flat in
        # t_job(service).
        assert max(waits) < 3 * max(min(waits), 1e-3)
        assert max(busy) - min(busy) < 0.1
        # Nothing is abandoned at any service decision time.
        assert all(row["abandoned"] == 0 for row in rows if row["cluster"] == cluster)
