"""MapReduce job profiles and the idealized performance model.

Paper section 6.1: "we deliberately use a simple performance model that
only relies on historical data about the job's average map and reduce
activity duration. It assumes that adding more workers results in an
idealized linear speedup (modulo dependencies between mappers and
reducers), up to the point where all map activities and all reduce
activities respectively run in parallel."
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.workload.distributions import WeightedChoice
from repro.workload.job import Job, JobType

#: "data from a month's worth of MapReduce jobs run at Google showed
#: that frequently observed values were 5, 11, 200 and 1,000 workers."
CONFIGURED_WORKER_CHOICES = WeightedChoice(
    values=[5, 11, 200, 1000], weights=[0.40, 0.30, 0.25, 0.05]
)


@dataclass(frozen=True)
class MapReduceProfile:
    """Historical shape of one MapReduce job.

    ``maps``/``reduces`` count *activities* (the paper renames
    MapReduce-level "tasks" to activities to avoid clashing with
    cluster-level tasks); workers are cluster tasks that execute them.
    """

    maps: int
    reduces: int
    map_duration: float
    reduce_duration: float
    workers_configured: int
    cpu_per_worker: float = 1.0
    mem_per_worker: float = 2.0

    def __post_init__(self) -> None:
        if self.maps < 1:
            raise ValueError("a MapReduce job needs at least one map activity")
        if self.reduces < 0:
            raise ValueError("reduces must be >= 0")
        if self.map_duration <= 0:
            raise ValueError("map_duration must be positive")
        if self.reduces > 0 and self.reduce_duration <= 0:
            raise ValueError("reduce_duration must be positive when reduces > 0")
        if self.workers_configured < 1:
            raise ValueError("workers_configured must be >= 1")

    # ------------------------------------------------------------------
    @property
    def max_useful_workers(self) -> int:
        """Beyond this, extra workers cannot reduce the completion time
        ("up to the point where all map activities and all reduce
        activities respectively run in parallel")."""
        return max(self.maps, self.reduces, 1)

    def completion_time(self, workers: int) -> float:
        """Predicted completion time with ``workers`` parallel workers.

        Idealized linear speedup within each phase; the map phase must
        finish before the reduce phase (the mapper-reducer dependency).
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        map_time = self.maps * self.map_duration / min(workers, self.maps)
        reduce_time = 0.0
        if self.reduces > 0:
            reduce_time = (
                self.reduces * self.reduce_duration / min(workers, self.reduces)
            )
        return map_time + reduce_time

    def speedup(self, workers: int) -> float:
        """Completion speedup relative to the user-configured size."""
        return self.completion_time(self.workers_configured) / self.completion_time(
            workers
        )


@dataclass
class MapReduceJob(Job):
    """A batch job whose tasks are elastic MapReduce workers.

    ``num_tasks`` is the user-configured worker count at submission; the
    specialized scheduler may grant more (or fewer) workers, recorded in
    ``granted_workers``.
    """

    profile: MapReduceProfile | None = None
    granted_workers: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.profile is None:
            raise ValueError("MapReduceJob requires a profile")

    @classmethod
    def from_profile(
        cls, profile: MapReduceProfile, submit_time: float, job_id: int
    ) -> "MapReduceJob":
        return cls(
            job_type=JobType.BATCH,
            submit_time=submit_time,
            num_tasks=profile.workers_configured,
            cpu_per_task=profile.cpu_per_worker,
            mem_per_task=profile.mem_per_worker,
            duration=profile.completion_time(profile.workers_configured),
            job_id=job_id,
            profile=profile,
        )


#: Reference cell size for worker-count scaling: the paper's observed
#: worker counts (5..1000) come from Google cells of roughly this many
#: machines. Profiles sampled for smaller cells shrink proportionally.
REFERENCE_CELL_MACHINES = 10_000


def sample_profile(
    rng: np.random.Generator, worker_scale: float = 1.0
) -> MapReduceProfile:
    """Sample a MapReduce job profile.

    Activity counts are several times the configured worker count
    ("large MapReduce jobs typically have many more of these activities
    than configured workers"), so most jobs have acceleration headroom.

    ``worker_scale`` shrinks the configured worker counts for scaled-
    down cells (a 1,000-worker job is meaningless on a 200-machine
    cell); use ``num_machines / REFERENCE_CELL_MACHINES``.
    """
    if worker_scale <= 0:
        raise ValueError(f"worker_scale must be positive, got {worker_scale}")
    workers = max(1, round(CONFIGURED_WORKER_CHOICES.sample(rng) * worker_scale))
    activity_ratio = float(rng.lognormal(mean=np.log(4.0), sigma=0.8))
    maps = max(workers, int(workers * max(activity_ratio, 1.0)))
    reduce_ratio = float(rng.uniform(0.0, 0.5))
    reduces = int(maps * reduce_ratio)
    return MapReduceProfile(
        maps=maps,
        reduces=reduces,
        map_duration=float(rng.lognormal(mean=np.log(45.0), sigma=0.8)),
        reduce_duration=float(rng.lognormal(mean=np.log(90.0), sigma=0.8)),
        workers_configured=workers,
        cpu_per_worker=float(rng.lognormal(mean=np.log(0.8), sigma=0.3)),
        mem_per_worker=float(rng.lognormal(mean=np.log(1.5), sigma=0.3)),
    )
