"""The Mesos-style central resource allocator.

Models the "simple allocator" of Mesos 0.9 as described in paper
sections 3.3 and 4.2:

* resources are distributed as *offers* containing only currently
  available (unused, unoffered) resources;
* a given resource is only offered to one framework at a time —
  pessimistic concurrency: the framework "effectively holds a lock on
  that resource for the duration of a scheduling decision";
* by default the allocator "offers all available resources to a
  framework every time it makes an offer" (footnote 3);
* making an offer takes 1 ms ("The DRF algorithm used by Mesos's
  centralized resource allocator is quite fast, so we assume it takes
  1 ms to make a resource offer");
* the next offer goes to the framework furthest below its DRF dominant
  share.

The ``fair_share`` offer policy implements the extension discussed at
the end of section 4.2 ("Mesos could be extended to make only
fair-share offers") as an ablation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.cellstate import CellState
from repro.core.transaction import Claim
from repro.schedulers.mesos.drf import dominant_share, pick_next_framework
from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.schedulers.mesos.framework import MesosFramework

#: Time to construct and send one resource offer (paper section 4.2).
OFFER_TIME = 0.001

class Offer:
    """A pessimistically-locked bundle of per-machine resources.

    ``offer_id`` is trace-visible and numbered by the issuing allocator
    from 1, so it depends on nothing outside its own cell.
    """

    __slots__ = ("offer_id", "free_cpu", "free_mem", "returned")

    def __init__(
        self, offer_id: int, free_cpu: np.ndarray, free_mem: np.ndarray
    ) -> None:
        self.offer_id = offer_id
        self.free_cpu = free_cpu
        self.free_mem = free_mem
        self.returned = False

    @property
    def total_cpu(self) -> float:
        return float(self.free_cpu.sum())

    @property
    def total_mem(self) -> float:
        return float(self.free_mem.sum())


class MesosAllocator:
    """Central two-level resource manager (one per cell)."""

    def __init__(
        self,
        sim: Simulator,
        state: CellState,
        offer_time: float = OFFER_TIME,
        offer_policy: str = "all",
    ) -> None:
        if offer_policy not in ("all", "fair_share"):
            raise ValueError(f"unknown offer policy: {offer_policy!r}")
        self.sim = sim
        self.state = state
        self.offer_time = offer_time
        self.offer_policy = offer_policy
        self.frameworks: list["MesosFramework"] = []
        self._allocated: dict["MesosFramework", list[float]] = {}
        # Resources currently promised inside outstanding offers.
        self._offered_cpu = np.zeros(state.num_machines)
        self._offered_mem = np.zeros(state.num_machines)
        self._cycle_scheduled = False
        self.offers_made = 0

    # ------------------------------------------------------------------
    # Registration and accounting
    # ------------------------------------------------------------------
    def register(self, framework: "MesosFramework") -> None:
        if framework in self._allocated:
            raise ValueError(f"framework {framework.name} already registered")
        self.frameworks.append(framework)
        self._allocated[framework] = [0.0, 0.0]

    def allocated(self, framework: "MesosFramework") -> tuple[float, float]:
        cpu, mem = self._allocated[framework]
        return cpu, mem

    def _dominant_shares(self) -> dict["MesosFramework", float]:
        cell = self.state.cell
        return {
            framework: dominant_share(cpu, mem, cell.total_cpu, cell.total_mem)
            for framework, (cpu, mem) in sorted(
                self._allocated.items(), key=lambda entry: entry[0].name
            )
        }

    # ------------------------------------------------------------------
    # Offer cycle
    # ------------------------------------------------------------------
    def request_offers(self, framework: "MesosFramework") -> None:
        """A framework signals that it has pending work."""
        self._kick()

    def _kick(self) -> None:
        if self._cycle_scheduled:
            return
        if not any(f.wants_offers() for f in self.frameworks):
            return
        self._cycle_scheduled = True
        self.sim.after(self.offer_time, self._make_offer)

    def _available(self) -> tuple[np.ndarray, np.ndarray]:
        available_cpu = np.maximum(self.state.free_cpu - self._offered_cpu, 0.0)
        available_mem = np.maximum(self.state.free_mem - self._offered_mem, 0.0)
        return available_cpu, available_mem

    def _fair_share_scale(
        self, framework: "MesosFramework", available_cpu: np.ndarray, available_mem: np.ndarray
    ) -> float:
        """Shrink factor so the offer tops the framework up to 1/n share."""
        cell = self.state.cell
        n = len(self.frameworks)
        cpu_alloc, mem_alloc = self._allocated[framework]
        headroom_cpu = max(cell.total_cpu / n - cpu_alloc, 0.0)
        headroom_mem = max(cell.total_mem / n - mem_alloc, 0.0)
        total_cpu = float(available_cpu.sum())
        total_mem = float(available_mem.sum())
        scale = 1.0
        if total_cpu > 0:
            scale = min(scale, headroom_cpu / total_cpu)
        if total_mem > 0:
            scale = min(scale, headroom_mem / total_mem)
        return scale

    def _make_offer(self) -> None:
        self._cycle_scheduled = False
        candidates = [f for f in self.frameworks if f.wants_offers()]
        if not candidates:
            return
        available_cpu, available_mem = self._available()
        if available_cpu.sum() <= 0.0 and available_mem.sum() <= 0.0:
            # Nothing to offer; a task completion will kick us again.
            return
        framework = pick_next_framework(candidates, self._dominant_shares())
        if self.offer_policy == "fair_share":
            scale = self._fair_share_scale(framework, available_cpu, available_mem)
            if scale <= 0.0:
                # This framework is at fair share; try the others next kick.
                others = [f for f in candidates if f is not framework]
                if others:
                    framework = pick_next_framework(others, self._dominant_shares())
                    scale = self._fair_share_scale(
                        framework, available_cpu, available_mem
                    )
                if scale <= 0.0:
                    return
            available_cpu = available_cpu * scale
            available_mem = available_mem * scale
        self.offers_made += 1
        offer = Offer(self.offers_made, available_cpu.copy(), available_mem.copy())
        self._offered_cpu += offer.free_cpu
        self._offered_mem += offer.free_mem
        rec = self.sim.recorder
        if rec.enabled:
            rec.event(
                "mesos.offer_issued",
                t=self.sim.now,
                framework=framework.name,
                offer=offer.offer_id,
                cpu=offer.total_cpu,
                mem=offer.total_mem,
            )
        framework.receive_offer(offer)
        # More resources may remain (fair-share policy) or other
        # frameworks may be waiting; keep the cycle going.
        self._kick()

    def return_offer(self, offer: Offer) -> None:
        """A framework is done with an offer (used or not)."""
        if offer.returned:
            raise ValueError(f"offer {offer.offer_id} returned twice")
        offer.returned = True
        self._offered_cpu -= offer.free_cpu
        self._offered_mem -= offer.free_mem
        np.maximum(self._offered_cpu, 0.0, out=self._offered_cpu)
        np.maximum(self._offered_mem, 0.0, out=self._offered_mem)
        self._kick()

    # ------------------------------------------------------------------
    # Launch and completion
    # ------------------------------------------------------------------
    def launch(
        self,
        framework: "MesosFramework",
        claims: list[Claim],
        duration: float,
    ) -> list[Claim]:
        """Commit a framework's placements and schedule their completion;
        returns the claims launched.

        Claims come from within an offer the framework holds, so other
        frameworks never conflict with them: pessimistic concurrency.
        Only a machine that failed while the offer was held can have
        lost the room: its claim is dropped and its tasks stay unplaced
        for a later offer, the way Mesos rescinds offers from lost
        agents.
        """
        fits = self.state.fits
        launched = [
            claim for claim in claims
            if fits(claim.machine, claim.cpu, claim.mem, claim.count)
        ]
        totals = self._allocated[framework]
        # One claim per machine within an offer, so the batch apply
        # is order-equivalent to the old claim-by-claim loop.
        self.state.claim_batch(launched)
        for claim in launched:
            totals[0] += claim.cpu * claim.count
            totals[1] += claim.mem * claim.count
            self.sim.after(duration, self._task_end, framework, claim)
        return launched

    def _task_end(self, framework: "MesosFramework", claim: Claim) -> None:
        self.state.release(claim.machine, claim.cpu, claim.mem, claim.count)
        totals = self._allocated[framework]
        totals[0] -= claim.cpu * claim.count
        totals[1] -= claim.mem * claim.count
        self._kick()
