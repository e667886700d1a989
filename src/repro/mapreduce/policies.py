"""Resource-allocation policies for the MapReduce scheduler.

Paper section 6.1: "We consider three different policies for adding
resources: max-parallelism, which keeps on adding workers as long as
benefit is obtained, global cap, which stops the MapReduce scheduler
using idle resources if the total cluster utilization is above a target
value, and relative job size, which limits the maximum number of
workers to four times as many as it initially requested. In each case,
a set of resource allocations to be investigated is run through the
predictive model, and the allocation leading to the earliest possible
finish time is used."
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.mapreduce.model import MapReduceProfile

#: Fraction of genuinely idle resources the opportunistic scheduler is
#: willing to consume ("apportions some fraction of the unused
#: resources across those jobs").
IDLE_USE_FRACTION = 0.9

#: The paper's global-cap utilization threshold ("the threshold, which
#: was set at 60%").
GLOBAL_CAP_THRESHOLD = 0.6


@dataclass(frozen=True)
class ClusterView:
    """What the MapReduce scheduler sees in the shared cell state.

    This whole-cluster visibility is the point of the case study: "To
    do its work, the MapReduce scheduler relies on being able to see
    the entire cluster's state, which is straightforward in the Omega
    architecture."
    """

    idle_cpu: float
    idle_mem: float
    total_cpu: float
    total_mem: float

    @property
    def utilization(self) -> float:
        """CPU utilization (the dominant dimension for MR workers)."""
        return 1.0 - self.idle_cpu / self.total_cpu


class AllocationPolicy(abc.ABC):
    """A policy answers: at most how many workers may this job get?"""

    name: str = "policy"

    @abc.abstractmethod
    def worker_cap(self, profile: MapReduceProfile, view: ClusterView) -> int:
        """Upper bound on total workers for a job under this policy."""


class NoAccelerationPolicy(AllocationPolicy):
    """Baseline: the user-configured size, exactly (Figure 16 "normal")."""

    name = "normal"

    def worker_cap(self, profile: MapReduceProfile, view: ClusterView) -> int:
        return profile.workers_configured


class MaxParallelismPolicy(AllocationPolicy):
    """"keeps on adding workers as long as benefit is obtained"."""

    name = "max-parallelism"

    def worker_cap(self, profile: MapReduceProfile, view: ClusterView) -> int:
        return max(profile.max_useful_workers, profile.workers_configured)


class GlobalCapPolicy(AllocationPolicy):
    """"stops ... using idle resources if the total cluster utilization
    is above a target value"."""

    name = "global-cap"

    def __init__(self, threshold: float = GLOBAL_CAP_THRESHOLD) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = threshold

    def worker_cap(self, profile: MapReduceProfile, view: ClusterView) -> int:
        if view.utilization >= self.threshold:
            return profile.workers_configured
        # Extra workers may consume idle CPU only down to the threshold.
        headroom_cpu = (self.threshold - view.utilization) * view.total_cpu
        extra = int(headroom_cpu / profile.cpu_per_worker)
        cap = profile.workers_configured + max(extra, 0)
        return min(cap, max(profile.max_useful_workers, profile.workers_configured))


class RelativeJobSizePolicy(AllocationPolicy):
    """"limits the maximum number of workers to four times as many as
    it initially requested"."""

    name = "relative-job-size"

    def __init__(self, factor: float = 4.0) -> None:
        if factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {factor}")
        self.factor = factor

    def worker_cap(self, profile: MapReduceProfile, view: ClusterView) -> int:
        cap = int(profile.workers_configured * self.factor)
        return min(cap, max(profile.max_useful_workers, profile.workers_configured))


#: Every policy by name: what ``LightweightConfig.mapreduce_policy`` names.
POLICIES: dict[str, type[AllocationPolicy]] = {
    policy.name: policy
    for policy in (
        NoAccelerationPolicy,
        MaxParallelismPolicy,
        RelativeJobSizePolicy,
        GlobalCapPolicy,
    )
}


def _affordable_workers(profile: MapReduceProfile, view: ClusterView) -> int:
    """Workers the cluster's idle resources can actually host."""
    budget_cpu = view.idle_cpu * IDLE_USE_FRACTION
    budget_mem = view.idle_mem * IDLE_USE_FRACTION
    by_cpu = int(budget_cpu / profile.cpu_per_worker)
    by_mem = int(budget_mem / profile.mem_per_worker)
    return min(by_cpu, by_mem)


def decide_workers(
    profile: MapReduceProfile,
    policy: AllocationPolicy,
    view: ClusterView,
    candidates: int = 16,
) -> int:
    """Pick the worker count with the earliest predicted finish time.

    Evaluates a geometric grid of candidate allocations between the
    configured size and the policy/resource cap through the predictive
    model, per the paper's "a set of resource allocations to be
    investigated is run through the predictive model".
    """
    if candidates < 2:
        raise ValueError(f"candidates must be >= 2, got {candidates}")
    configured = profile.workers_configured
    cap = min(policy.worker_cap(profile, view), _affordable_workers(profile, view))
    cap = max(cap, 1)
    if cap <= configured:
        # No headroom (or the policy forbids growth): ask for the
        # requested size; if even that does not fit, placement itself
        # grants what it can — policies never shrink a job's request.
        return configured
    low, high = configured, cap
    grid = sorted(
        {
            max(1, round(low * (high / low) ** (i / (candidates - 1))))
            for i in range(candidates)
        }
    )
    best = configured
    best_time = profile.completion_time(configured)
    for workers in grid:
        predicted = profile.completion_time(workers)
        if predicted < best_time - 1e-12:
            best = workers
            best_time = predicted
    return best
