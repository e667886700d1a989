"""Cluster presets A, B, C, D.

The paper characterizes three Google production cells (section 2.1):

* **A** — a medium-sized, fairly busy cluster,
* **B** — one of the larger clusters in use at Google,
* **C** — the cluster whose scheduler trace was published (Reiss et al.),
* **D** — (section 6.2) a small, lightly-loaded cluster, about a quarter
  of the size of cluster C.

The actual traces are proprietary; these presets substitute parameterized
distributions tuned to the published *shapes* (DESIGN.md, "Substitutions"):

* > 80 % of jobs are batch, but 55-80 % of resources go to service jobs
  (Figure 2);
* service jobs run orders of magnitude longer than batch jobs, with a
  tail that exceeds the 30-day observation window (Figure 3);
* tasks-per-job is heavy-tailed, reaching thousands of tasks beyond the
  99th percentile (Figure 4);
* batch inter-arrival times are seconds; service inter-arrivals are
  minutes (Figure 3).

Each preset carries two parameter sets:

* ``batch`` / ``service`` (:class:`WorkloadParams`) drive the *simulators*.
  Their arrival rates and decision-time interactions reproduce the
  scheduler-level dynamics of Figures 5-14 (e.g. the Figure 8 saturation
  ordering A < B < C). Durations are capped so a 24-hour simulation
  reaches a quasi-steady state.
* ``characterization`` (:class:`CharacterizationParams`) carries the
  full-tailed distributions used to regenerate the workload
  characterization Figures 2-4 over the paper's 30-day window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.cluster import Cell
from repro.workload.distributions import (
    DiscretizedLogNormal,
    LogNormal,
    Sampler,
)

#: Cap on simulated task durations (3 days). Tasks outliving the
#: simulation horizon never free their resources anyway; the cap keeps
#: offered-load accounting finite.
SIM_DURATION_CAP = 3 * 24 * 3600.0

#: The paper's 30-day trace window (Figures 3-4 x-axis range).
TRACE_WINDOW = 30 * 24 * 3600.0


@dataclass(frozen=True)
class WorkloadParams:
    """Synthetic-workload parameters for one job type on one cluster."""

    arrival_rate: float  # jobs per second (the paper's lambda_jobs)
    tasks_per_job: Sampler
    task_duration: Sampler  # seconds
    cpu_per_task: Sampler  # cores
    mem_per_task: Sampler  # GB

    def mean_offered_cpu(self) -> float:
        """Long-run mean CPU demand (cores) offered by this stream.

        little's-law style estimate: rate x tasks x cpu x duration.
        Uses analytic sampler means, so treat as an estimate.
        """
        return (
            self.arrival_rate
            * self.tasks_per_job.mean()
            * self.cpu_per_task.mean()
            * self.task_duration.mean()
        )

    def mean_decision_time(self, t_job: float, t_task: float) -> float:
        """Expected per-job scheduler decision time under the paper's
        linear model t_decision = t_job + t_task * tasks_per_job."""
        return t_job + t_task * self.tasks_per_job.mean()

    def scaled_rate(self, factor: float) -> "WorkloadParams":
        """A copy with the arrival rate multiplied by ``factor``
        (Figure 8/9's relative lambda_jobs knob)."""
        if not 0 < factor < math.inf:
            raise ValueError(f"rate factor must be positive and finite, got {factor}")
        return replace(self, arrival_rate=self.arrival_rate * factor)


@dataclass(frozen=True)
class CharacterizationParams:
    """Full-tailed per-type distributions for the Figure 2-4 workload
    characterization (30-day window, durations uncapped)."""

    batch_arrival_rate: float
    service_arrival_rate: float
    batch_tasks: Sampler
    service_tasks: Sampler
    batch_runtime: Sampler
    service_runtime: Sampler
    batch_cpu: Sampler
    service_cpu: Sampler
    batch_mem: Sampler
    service_mem: Sampler


@dataclass(frozen=True)
class ClusterPreset:
    """Everything needed to instantiate one of the paper's clusters."""

    name: str
    num_machines: int
    cpu_per_machine: float
    mem_per_machine: float
    batch: WorkloadParams
    service: WorkloadParams
    characterization: CharacterizationParams
    initial_utilization: float = 0.60  # paper section 4: ~60 % fill
    description: str = ""

    def cell(self) -> Cell:
        """Build the homogeneous cell for the lightweight simulator."""
        return Cell.homogeneous(
            self.num_machines,
            self.cpu_per_machine,
            self.mem_per_machine,
            name=self.name,
        )

    @property
    def total_cpu(self) -> float:
        return self.num_machines * self.cpu_per_machine

    @property
    def total_mem(self) -> float:
        return self.num_machines * self.mem_per_machine

    def scaled(self, factor: float) -> "ClusterPreset":
        """Scale the cell size and arrival rates together by ``factor``.

        Shrinking a preset this way preserves utilization and relative
        scheduler load while making simulations cheaper; benchmark
        defaults use factors < 1 so the suite runs on one CPU.
        """
        if not 0 < factor < math.inf:
            raise ValueError(f"scale factor must be positive and finite, got {factor}")
        machines = max(1, round(self.num_machines * factor))
        achieved = machines / self.num_machines
        return replace(
            self,
            name=f"{self.name}x{factor:g}",
            num_machines=machines,
            batch=self.batch.scaled_rate(achieved),
            service=self.service.scaled_rate(achieved),
            characterization=replace(
                self.characterization,
                batch_arrival_rate=self.characterization.batch_arrival_rate * achieved,
                service_arrival_rate=self.characterization.service_arrival_rate
                * achieved,
            ),
        )


def _make_characterization(
    batch_rate: float, service_rate: float
) -> CharacterizationParams:
    """Shared Figure 2-4 distribution shapes; rates vary per cluster.

    Tuned so that (validated in tests/benchmarks):
    batch is > 80 % of jobs; service holds 55-80 % of requested
    CPU-core-seconds over a 30-day window; 5-10 % of service jobs outlive
    the 30-day window; tasks-per-job tails reach thousands.
    """
    return CharacterizationParams(
        batch_arrival_rate=batch_rate,
        service_arrival_rate=service_rate,
        batch_tasks=DiscretizedLogNormal(median=20, sigma=1.5, low=1, high=20000),
        service_tasks=DiscretizedLogNormal(median=4, sigma=1.2, low=1, high=3000),
        batch_runtime=LogNormal(median=600.0, sigma=1.8, low=1.0),
        service_runtime=LogNormal(median=12 * 3600.0, sigma=3.0, low=30.0),
        batch_cpu=LogNormal(median=0.3, sigma=0.5, low=0.05, high=4.0),
        service_cpu=LogNormal(median=0.5, sigma=0.5, low=0.05, high=4.0),
        batch_mem=LogNormal(median=1.0, sigma=0.5, low=0.05, high=16.0),
        service_mem=LogNormal(median=1.5, sigma=0.5, low=0.05, high=16.0),
    )


def _batch_params(rate: float, tasks_median: float) -> WorkloadParams:
    return WorkloadParams(
        arrival_rate=rate,
        tasks_per_job=DiscretizedLogNormal(median=tasks_median, sigma=1.5, low=1, high=5000),
        task_duration=LogNormal(median=40.0, sigma=1.3, low=5.0, high=SIM_DURATION_CAP),
        cpu_per_task=LogNormal(median=0.3, sigma=0.5, low=0.05, high=2.0),
        mem_per_task=LogNormal(median=1.0, sigma=0.5, low=0.05, high=8.0),
    )


def _service_params(rate: float) -> WorkloadParams:
    return WorkloadParams(
        arrival_rate=rate,
        tasks_per_job=DiscretizedLogNormal(median=5, sigma=1.2, low=1, high=1000),
        task_duration=LogNormal(
            median=4 * 3600.0, sigma=1.5, low=60.0, high=SIM_DURATION_CAP
        ),
        cpu_per_task=LogNormal(median=0.5, sigma=0.5, low=0.05, high=2.0),
        mem_per_task=LogNormal(median=1.5, sigma=0.5, low=0.05, high=8.0),
    )


CLUSTER_A = ClusterPreset(
    name="A",
    num_machines=1500,
    cpu_per_machine=4.0,
    mem_per_machine=16.0,
    batch=_batch_params(rate=1.5, tasks_median=10),
    service=_service_params(rate=0.006),
    characterization=_make_characterization(batch_rate=0.30, service_rate=0.025),
    description="medium-sized, fairly busy cluster",
)

CLUSTER_B = ClusterPreset(
    name="B",
    num_machines=3000,
    cpu_per_machine=4.0,
    mem_per_machine=16.0,
    batch=_batch_params(rate=0.75, tasks_median=8),
    service=_service_params(rate=0.008),
    characterization=_make_characterization(batch_rate=0.60, service_rate=0.05),
    description="one of the larger clusters in use at Google",
)

CLUSTER_C = ClusterPreset(
    name="C",
    num_machines=2500,
    cpu_per_machine=4.0,
    mem_per_machine=16.0,
    batch=_batch_params(rate=0.47, tasks_median=8),
    service=_service_params(rate=0.004),
    characterization=_make_characterization(batch_rate=0.40, service_rate=0.033),
    description="the cluster with the published public trace",
)

CLUSTER_D = ClusterPreset(
    name="D",
    num_machines=625,
    cpu_per_machine=4.0,
    mem_per_machine=16.0,
    batch=_batch_params(rate=0.10, tasks_median=8),
    service=_service_params(rate=0.002),
    characterization=_make_characterization(batch_rate=0.08, service_rate=0.007),
    initial_utilization=0.25,
    description="small, lightly-loaded cluster, about a quarter of C",
)

PRESETS: dict[str, ClusterPreset] = {
    preset.name: preset for preset in (CLUSTER_A, CLUSTER_B, CLUSTER_C, CLUSTER_D)
}


def preset_by_name(name: str) -> ClusterPreset:
    """Look up a preset by cluster letter (case-insensitive)."""
    key = name.strip().upper()
    try:
        return PRESETS[key]
    except KeyError:
        raise KeyError(
            f"unknown cluster preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
