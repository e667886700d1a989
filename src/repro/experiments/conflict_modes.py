"""Figure 14: conflict-detection and commit-granularity choices.

Expected shapes (paper section 5.2): all-or-nothing (gang) commits
roughly double the conflict fraction relative to incremental commits
under fine-grained detection ("retries now must re-place all tasks,
increasing their chance of failing again"); coarse-grained sequence-
number detection adds spurious conflicts and pushes conflict rate and
scheduler busyness up by 2-3x. "Clearly, incremental transactions
should be the default."
"""

from __future__ import annotations

from typing import Sequence

from repro.core.transaction import CommitMode, ConflictMode
from repro.experiments.common import DAY
from repro.experiments.hifi_perf import make_trace
from repro.hifi.replay import HighFidelityConfig
from repro.hifi.trace import Trace
from repro.schedulers.base import DecisionTimeModel

#: The four lines of Figure 14.
MODES = (
    ("Coarse/Gang", ConflictMode.COARSE, CommitMode.ALL_OR_NOTHING),
    ("Coarse/Incr.", ConflictMode.COARSE, CommitMode.INCREMENTAL),
    ("Fine/Gang", ConflictMode.FINE, CommitMode.ALL_OR_NOTHING),
    ("Fine/Incr.", ConflictMode.FINE, CommitMode.INCREMENTAL),
)

#: The metric columns of the Figure 14 table, in order.
FIGURE14_TABLE = (
    "conflict_service", "conflict_batch", "busy_service", "busy_batch",
    "wait_service", "unscheduled_fraction",
)


def figure14_points(
    trace: Trace | None = None,
    t_jobs: Sequence[float] = (1.0, 10.0, 100.0),
    cluster: str = "C",
    horizon: float = DAY,
    seed: int = 0,
    scale: float = 1.0,
) -> list[tuple[HighFidelityConfig, dict]]:
    """Sweep t_job(service) under each conflict/commit mode pair.

    All mode/t_job pairs replay the *same* trace, so the sweep is a flat
    list of independent points.
    """
    if trace is None:
        trace = make_trace(cluster, horizon, seed=seed, scale=scale)
    return [
        (
            HighFidelityConfig(
                trace=trace,
                seed=seed,
                service_model=DecisionTimeModel(t_job=t_job),
                conflict_mode=conflict_mode,
                commit_mode=commit_mode,
            ),
            {"mode": label, "t_job_service": t_job},
        )
        for label, conflict_mode, commit_mode in MODES
        for t_job in t_jobs
    ]
