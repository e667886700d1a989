"""Tables 1 and 2 of the paper, as structured data.

These tables are qualitative design comparisons; reproducing them means
encoding the claims so the test suite can cross-check them against the
implementation's actual behaviour (e.g. Table 1 says the monolithic
scheduler has no interference — the tests assert the monolithic
scheduler never records a conflict).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ApproachRow:
    """One row of Table 1."""

    approach: str
    resource_choice: str
    interference: str
    alloc_granularity: str
    cluster_wide_policies: str


TABLE1: tuple[ApproachRow, ...] = (
    ApproachRow(
        approach="Monolithic",
        resource_choice="all available",
        interference="none (serialized)",
        alloc_granularity="global policy",
        cluster_wide_policies="strict priority (preemption)",
    ),
    ApproachRow(
        approach="Statically partitioned",
        resource_choice="fixed subset",
        interference="none (partitioned)",
        alloc_granularity="per-partition policy",
        cluster_wide_policies="scheduler-dependent",
    ),
    ApproachRow(
        approach="Two-level (Mesos)",
        resource_choice="dynamic subset",
        interference="pessimistic",
        alloc_granularity="hoarding",
        cluster_wide_policies="strict fairness",
    ),
    ApproachRow(
        approach="Shared-state (Omega)",
        resource_choice="all available",
        interference="optimistic",
        alloc_granularity="per-scheduler policy",
        cluster_wide_policies="free-for-all, priority preemption",
    ),
)


@dataclass(frozen=True)
class SimulatorRow:
    """One row of Table 2 (simulator properties)."""

    property: str
    lightweight: str
    high_fidelity: str


TABLE2: tuple[SimulatorRow, ...] = (
    SimulatorRow("Machines", "homogeneous", "actual data (synthetic trace)"),
    SimulatorRow("Resource req. size", "sampled", "actual data (synthetic trace)"),
    SimulatorRow("Initial cell state", "sampled", "actual data (synthetic trace)"),
    SimulatorRow("Tasks per job", "sampled", "actual data (synthetic trace)"),
    SimulatorRow("lambda jobs", "sampled", "actual data (synthetic trace)"),
    SimulatorRow("Task duration", "sampled", "actual data (synthetic trace)"),
    SimulatorRow("Sched. constraints", "ignored", "obeyed"),
    SimulatorRow(
        "Sched. algorithm",
        "randomized first fit",
        "constraint-aware scoring (production stand-in)",
    ),
    SimulatorRow("Runtime", "fast", "slow"),
)


def table1_rows() -> list[dict]:
    return [vars(row) for row in TABLE1]


def table2_rows() -> list[dict]:
    return [vars(row) for row in TABLE2]

