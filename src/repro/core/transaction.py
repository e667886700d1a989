"""Optimistic-concurrency transactions against shared cell state.

Paper section 3.4: "Once a scheduler makes a placement decision, it
updates the shared copy of cell state in an atomic commit. ... the time
from state synchronization to the commit attempt is a transaction."

Two orthogonal choices are modeled, matching section 5.2:

* **Conflict detection** (:class:`ConflictMode`):
  ``FINE`` rejects a claim only if applying it would over-commit the
  machine *now*; ``COARSE`` rejects it if *anything* changed on the
  machine since the snapshot (sequence-number comparison), even changes
  that left enough room — the paper's "spurious conflicts".
* **Commit granularity** (:class:`CommitMode`):
  ``INCREMENTAL`` accepts all but the conflicting claims (atomicity but
  not independence); ``ALL_OR_NOTHING`` implements gang scheduling —
  one conflicting claim rejects the whole transaction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.core.cellstate import EPSILON, CellSnapshot, CellState
from repro.obs import recorder as _obs


class ConflictMode(enum.Enum):
    """How commit decides that a claim conflicts (paper section 5.2)."""

    FINE = "fine"
    COARSE = "coarse"


class CommitMode(enum.Enum):
    """Transaction granularity (paper sections 3.4 and 5.2)."""

    INCREMENTAL = "incremental"
    ALL_OR_NOTHING = "all_or_nothing"


@dataclass(frozen=True)
class Claim:
    """A planned allocation: ``count`` identical tasks on one machine."""

    machine: int
    cpu: float
    mem: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"claim count must be >= 1, got {self.count}")
        if not (self.cpu >= 0 and self.mem >= 0):
            raise ValueError("claim resources must be non-negative")
        if self.machine < 0:
            raise ValueError(f"claim machine must be >= 0, got {self.machine}")


@dataclass(frozen=True)
class CommitResult:
    """Outcome of one commit attempt."""

    accepted: tuple[Claim, ...]
    rejected: tuple[Claim, ...]
    #: Lower-precedence tasks evicted to make room (preempting commits).
    preempted_tasks: int = 0
    #: With tracing on, one ``[machine, tasks, cause]`` per rejection,
    #: for the attempt's ``sched.attempt`` record; empty otherwise.
    conflicts: list | tuple = ()

    @property
    def accepted_tasks(self) -> int:
        return sum(claim.count for claim in self.accepted)

    @property
    def rejected_tasks(self) -> int:
        return sum(claim.count for claim in self.rejected)

    @property
    def conflicted(self) -> bool:
        """Whether this attempt experienced at least one conflict.

        The paper's *conflict fraction* counts, per job, how many commit
        attempts conflicted; a value of 3 means four attempts.
        """
        return bool(self.rejected)

    @property
    def fully_accepted(self) -> bool:
        return not self.rejected


def commit(
    state: CellState,
    claims: list[Claim] | tuple[Claim, ...],
    snapshot: CellSnapshot,
    conflict_mode: ConflictMode = ConflictMode.FINE,
    commit_mode: CommitMode = CommitMode.INCREMENTAL,
) -> CommitResult:
    """Attempt to commit a transaction's claims to the master cell state.

    The claims were planned against ``snapshot``; the master copy may
    have moved on since. Returns which claims (or parts of claims —
    incremental commits split partially-fitting claims at task
    granularity, "only those changes that do not result in an
    overcommitted machine are accepted") were applied and which were
    rejected. Accepted claims are applied atomically: an all-or-nothing
    transaction that fails leaves the master copy untouched.

    With tracing on, the result's ``conflicts`` name each rejection's
    machine, rejected tasks and cause (``stale_sequence``,
    ``partial_capacity`` or ``capacity``).
    """
    if not claims:
        return CommitResult(accepted=(), rejected=())

    tracing = _obs.RECORDER.enabled
    conflicts: list[list] | tuple = [] if tracing else ()
    accepted: list[Claim] = []
    rejected: list[Claim] = []

    # Python floats and ints from buffer views: the per-claim work runs
    # on unboxed scalars (same IEEE-754 results as ``np.float64``).
    coarse = conflict_mode is ConflictMode.COARSE
    incremental = commit_mode is CommitMode.INCREMENTAL
    cpu_at = state._cpu_view
    mem_at = state._mem_view
    live_seq = state._seq_view
    seen_seq = memoryview(snapshot.seq)
    for claim in claims:
        machine = claim.machine
        count = claim.count
        if coarse and live_seq[machine] != seen_seq[machine]:
            # Coarse-grained: any change to the machine since sync is a
            # conflict, even if the claim would still fit.
            rejected.append(claim)
            if tracing:
                conflicts.append([machine, count, "stale_sequence"])
            continue
        # How many of the claim's tasks still fit on the live machine.
        ok = count
        if claim.cpu > 0:
            limit = int((cpu_at[machine] + EPSILON) // claim.cpu)
            if limit < ok:
                ok = limit
        if claim.mem > 0:
            limit = int((mem_at[machine] + EPSILON) // claim.mem)
            if limit < ok:
                ok = limit
        if ok >= count:
            accepted.append(claim)
        elif ok > 0 and incremental:
            accepted.append(replace(claim, count=ok))
            rejected.append(replace(claim, count=count - ok))
            if tracing:
                conflicts.append([machine, count - ok, "partial_capacity"])
        else:
            rejected.append(claim)
            if tracing:
                conflicts.append([machine, count, "capacity"])

    if commit_mode is CommitMode.ALL_OR_NOTHING and rejected:
        # Gang scheduling: one conflict rejects the entire transaction.
        return CommitResult(accepted=(), rejected=tuple(claims), conflicts=conflicts)

    state.claim_batch(accepted)
    return CommitResult(
        accepted=tuple(accepted), rejected=tuple(rejected), conflicts=conflicts
    )
