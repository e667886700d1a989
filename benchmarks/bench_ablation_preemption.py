"""Ablation: precedence preemption on vs off.

Paper section 3.4 / Table 1: Omega's cluster-wide policy model is
"free-for-all, priority preemption" — a service scheduler may claim
resources "even ones that another scheduler has already acquired". The
paper's high-fidelity simulator disabled preemption because "they make
little difference to the results, but significantly slow down the
simulations".

This ablation runs a 95 %-full cell whose service scheduler decides
slowly, with and without preemption. Preemption buys service wait with
batch wait: service jobs evict batch tasks (which reschedule) and wait
far less, while the share of jobs left unscheduled barely moves.
"""

from conftest import bench_horizon, bench_scale, figure


def test_ablation_preemption(report):
    rows = report(
        lambda: figure(
            "ablation-preemption",
            scale=bench_scale(0.2), horizon=bench_horizon(2.0)
        ),
        "Ablation: service-over-batch preemption on a nearly-full cell",
    )
    by_mode = {row["preemption"]: row for row in rows}
    # Preemption actually fires on a nearly-full cell...
    assert by_mode["on"]["tasks_preempted"] > 0
    assert by_mode["on"]["batch_tasks_lost"] == by_mode["on"]["tasks_preempted"]
    assert by_mode["off"]["tasks_preempted"] == 0
    # ...service jobs wait less for it...
    assert by_mode["on"]["wait_service"] < by_mode["off"]["wait_service"]
    # ...and the share of jobs left unscheduled barely moves.
    assert abs(
        by_mode["on"]["unscheduled_fraction"]
        - by_mode["off"]["unscheduled_fraction"]
    ) < 0.05
