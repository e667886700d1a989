"""Two-level, offer-based scheduling modeled on Mesos (paper sections
3.3 and 4.2).

A central :class:`allocator <repro.schedulers.mesos.allocator.MesosAllocator>`
owns the cell and hands out *offers* of currently-available resources to
:class:`framework <repro.schedulers.mesos.framework.MesosFramework>`
schedulers, one at a time, ordered by Dominant Resource Fairness. While
a framework holds an offer, those resources are effectively locked —
the pessimistic concurrency whose interaction with long service
decision times produces the pathology of Figure 7.
"""

from repro.schedulers.mesos.allocator import MesosAllocator, Offer
from repro.schedulers.mesos.drf import dominant_share, pick_next_framework
from repro.schedulers.mesos.framework import MesosFramework

__all__ = [
    "MesosAllocator",
    "MesosFramework",
    "Offer",
    "dominant_share",
    "pick_next_framework",
]
