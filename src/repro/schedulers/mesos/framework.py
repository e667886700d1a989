"""A Mesos framework scheduler (one per workload type in section 4.2).

The framework only sees the resources it has been offered — "it does not
have access to a view of the overall cluster state — just the resources
it has been offered" — and holds the offer for its whole decision time.
Placement within the offer is incremental; tasks that do not fit retry
on a later offer, and a job is abandoned after 1,000 attempts.
"""

from __future__ import annotations

import numpy as np

from repro.core.placement import randomized_first_fit
from repro.metrics import MetricsCollector
from repro.schedulers.base import DecisionTimeModel, QueueScheduler
from repro.schedulers.mesos.allocator import MesosAllocator, Offer
from repro.sim import Simulator
from repro.workload.job import Job


class MesosFramework(QueueScheduler):
    """An offer-driven scheduler framework."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        metrics: MetricsCollector,
        allocator: MesosAllocator,
        rng: np.random.Generator,
        model: DecisionTimeModel,
        attempt_limit: int = 1000,
    ) -> None:
        super().__init__(name, sim, metrics, model, attempt_limit)
        self.allocator = allocator
        self._rng = rng
        #: The offer held by the in-flight attempt (returned to the
        #: allocator if the framework crashes mid-think).
        self._inflight_offer: Offer | None = None
        allocator.register(self)

    # ------------------------------------------------------------------
    # Offer-driven service loop: an offer, not a queued job, starts it
    # ------------------------------------------------------------------
    def wants_offers(self) -> bool:
        """Whether the allocator should send this framework an offer."""
        return bool(self._queue) and not self._busy and not self._down

    def _maybe_start(self) -> None:
        # Frameworks cannot start thinking on their own: they wait for
        # an offer. Signal the allocator instead.
        if self.wants_offers():
            self.allocator.request_offers(self)

    def receive_offer(self, offer: Offer) -> None:
        """Hold the offer for one job's full decision time, then place."""
        if self._busy:  # pragma: no cover - allocator checks wants_offers()
            raise RuntimeError(f"framework {self.name} offered while busy")
        if not self._queue or self._down:
            rec = self.sim.recorder
            if rec.enabled:
                rec.event(
                    "mesos.offer_declined",
                    t=self.sim.now,
                    sched=self.name,
                    offer=offer.offer_id,
                    reason="crashed" if self._down else "no_pending_work",
                )
            self.allocator.return_offer(offer)
            return
        self._inflight_offer = offer
        super()._maybe_start()

    # ------------------------------------------------------------------
    # QueueScheduler hooks
    # ------------------------------------------------------------------
    def attempt(self, job: Job) -> None:
        """Place within the held offer, launch, and hand the offer back."""
        offer = self._inflight_offer
        self._inflight_offer = None
        claims = randomized_first_fit(
            offer.free_cpu,
            offer.free_mem,
            job.cpu_per_task,
            job.mem_per_task,
            job.unplaced_tasks,
            self._rng,
        )
        if claims:
            claims = self.allocator.launch(self, claims, job.duration)
        placed = sum(claim.count for claim in claims)
        job.unplaced_tasks -= placed
        record = self._attempt_record
        if record is not None:
            record["offer"] = offer.offer_id
            record["placed"] = placed
        # "Resources not used at the end of scheduling a job are
        # returned to the allocator."
        self.allocator.return_offer(offer)
        # Jobs whose remaining tasks found no room wait for a future
        # offer at the back of the queue; pessimistic concurrency means
        # there are never conflicts to retry at the front.
        self._resolve_attempt(job, had_conflict=False)

    def _commit_dropped(self, job: Job) -> None:
        """The launch message was lost in flight: nothing was placed,
        the offer goes back (:meth:`_abort_attempt`) and the job waits
        for a later offer. Pessimistic concurrency means there is no
        conflict to count or retry."""
        super()._commit_dropped(job, conflicted=False)

    def _abort_attempt(self, job: Job) -> None:
        """Crash cleanup: the held offer goes back to the allocator so
        its resources are not stranded while the framework is down."""
        offer = self._inflight_offer
        self._inflight_offer = None
        if offer is not None:
            self.allocator.return_offer(offer)
