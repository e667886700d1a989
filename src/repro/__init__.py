"""repro — a from-scratch reproduction of
"Omega: flexible, scalable schedulers for large compute clusters"
(Schwarzkopf, Konwinski, Abd-El-Malek, Wilkes; EuroSys 2013).

The package implements the paper's shared-state, optimistically-
concurrent scheduler architecture plus everything it is evaluated
against and on:

* :mod:`repro.core` — cell state, optimistic transactions, Omega
  schedulers, multi-scheduler pools (the paper's contribution);
* :mod:`repro.sim` — the discrete-event engine both simulators run on;
* :mod:`repro.cluster`, :mod:`repro.workload` — cells, machines, jobs,
  and the cluster A/B/C/D workload presets;
* :mod:`repro.schedulers` — monolithic, statically-partitioned and
  Mesos-style two-level baselines;
* :mod:`repro.hifi` — the trace-driven high-fidelity simulator with
  placement constraints and scoring placement;
* :mod:`repro.mapreduce` — the specialized MapReduce scheduler case
  study;
* :mod:`repro.experiments` — one driver per paper table/figure, plus
  the ``omega-sim`` CLI.

Quickstart::

    from repro import LightweightConfig, run_lightweight, CLUSTER_B

    result = run_lightweight(
        LightweightConfig(preset=CLUSTER_B, architecture="omega", horizon=3600.0)
    )
    print(result.busyness("batch"), result.conflict_fraction("batch"))
"""

from repro.cluster import Cell, Machine
from repro.core import (
    CellSnapshot,
    CellState,
    CommitMode,
    CommitResult,
    ConflictMode,
    OmegaScheduler,
    Plan,
    SchedulerPool,
    commit,
    randomized_first_fit,
)
from repro.experiments import (
    LightweightConfig,
    LightweightSimulation,
    run_lightweight,
)
from repro import obs
from repro.hifi import HighFidelityConfig, run_hifi, synthesize_trace
from repro.metrics import MetricsCollector
from repro.schedulers import DecisionTimeModel
from repro.sim import RandomStreams, Simulator
from repro.workload import (
    CLUSTER_A,
    CLUSTER_B,
    CLUSTER_C,
    CLUSTER_D,
    ClusterPreset,
    Job,
    JobType,
    preset_by_name,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # observability
    "obs",
    # cluster + workload
    "Cell",
    "Machine",
    "Job",
    "JobType",
    "ClusterPreset",
    "CLUSTER_A",
    "CLUSTER_B",
    "CLUSTER_C",
    "CLUSTER_D",
    "preset_by_name",
    # core
    "CellState",
    "CellSnapshot",
    "Plan",
    "CommitMode",
    "ConflictMode",
    "CommitResult",
    "commit",
    "randomized_first_fit",
    "OmegaScheduler",
    "SchedulerPool",
    # simulation
    "Simulator",
    "RandomStreams",
    "MetricsCollector",
    "DecisionTimeModel",
    # harnesses
    "LightweightConfig",
    "LightweightSimulation",
    "run_lightweight",
    "HighFidelityConfig",
    "run_hifi",
    "synthesize_trace",
]
