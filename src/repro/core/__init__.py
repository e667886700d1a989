"""The paper's primary contribution: shared-state scheduling with
lock-free optimistic concurrency control (paper section 3.4).

* :mod:`repro.core.cellstate` — the resilient master copy of resource
  allocations ("cell state") plus the cheap private snapshots schedulers
  work against.
* :mod:`repro.core.transaction` — optimistic commit: fine- vs
  coarse-grained conflict detection, incremental vs all-or-nothing
  (gang) transactions (paper section 5.2).
* :mod:`repro.core.placement` — the lightweight simulator's randomized
  first-fit placement (Table 2).
* :mod:`repro.core.scheduler` — the Omega scheduler service loop:
  sync -> think -> commit -> resync/retry.
* :mod:`repro.core.multi` — hash-partitioned scheduler pools
  (Figures 9 and 13).
"""

from repro.core.cellstate import CellSnapshot, CellState, OvercommitError
from repro.core.placement import randomized_first_fit
from repro.core.preemption import (
    AllocationLedger,
    AllocationRecord,
    commit_with_preemption,
)
from repro.core.scheduler import OmegaScheduler, PreemptingOmegaScheduler
from repro.core.multi import SchedulerPool
from repro.core.transaction import (
    CommitMode,
    CommitResult,
    ConflictMode,
    Plan,
    commit,
)

__all__ = [
    "CellState",
    "CellSnapshot",
    "OvercommitError",
    "Plan",
    "CommitMode",
    "ConflictMode",
    "CommitResult",
    "commit",
    "randomized_first_fit",
    "OmegaScheduler",
    "PreemptingOmegaScheduler",
    "AllocationLedger",
    "AllocationRecord",
    "commit_with_preemption",
    "SchedulerPool",
]
