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
import math
from collections import namedtuple
from typing import Iterator, NamedTuple, Sequence

from repro.core.cellstate import EPSILON, CellSnapshot, CellState


class ConflictMode(enum.Enum):
    """How commit decides that a claim conflicts (paper section 5.2)."""

    FINE = "fine"
    COARSE = "coarse"


class CommitMode(enum.Enum):
    """Transaction granularity (paper sections 3.4 and 5.2)."""

    INCREMENTAL = "incremental"
    ALL_OR_NOTHING = "all_or_nothing"


#: One machine of a :class:`Plan`, as iterating the plan yields it.
PlanRow = namedtuple("PlanRow", "machine count")


class Plan:
    """One transaction's planned allocation: ``counts[i]`` identical tasks
    of ``cpu`` x ``mem`` on ``machines[i]`` (a job's tasks are identical,
    :mod:`repro.workload.job`, so the size is stored once).

    Construction refuses, with one ``ValueError`` before anything is
    written, a non-finite or negative size, a machine or count that is
    not an ``int`` (a float, a NumPy scalar), a count below 1, a negative machine and a machine
    named twice, so every walk over a plan meets each machine once and
    claims whole tasks. ``tasks`` is the sum of ``counts``. Iterating
    yields read-only ``PlanRow`` rows.
    """

    __slots__ = ("cpu", "mem", "machines", "counts", "tasks")

    def __init__(
        self, cpu: float, mem: float, machines: Sequence[int], counts: Sequence[int]
    ) -> None:
        # Comparisons (NaN fails each), and sum, min and set at C speed.
        if not (0.0 <= cpu < math.inf and 0.0 <= mem < math.inf):
            raise ValueError(
                f"plan sizes must be finite, non-negative numbers, got cpu={cpu}, mem={mem}"
            )
        size = len(machines)
        if size != len(counts):
            raise ValueError(f"{size} machines but {len(counts)} counts")
        tasks = sum(counts)
        if size:
            # A sum of ints is an int; one float or NumPy scalar makes
            # it another type.
            if type(tasks) is not int or type(sum(machines)) is not int:
                bad = next(v for v in (*machines, *counts) if type(v) is not int)
                raise ValueError(f"plan machines and counts must be int, got {bad!r}")
            if min(counts) < 1:
                raise ValueError(f"plan count must be >= 1, got {min(counts)}")
            if min(machines) < 0:
                raise ValueError(f"plan machine must be >= 0, got {min(machines)}")
            if size > 1 and len(set(machines)) != size:
                twice = next(m for i, m in enumerate(machines) if m in machines[:i])
                raise ValueError(f"plan names machine {twice} twice")
        self.cpu, self.mem, self.machines, self.counts = cpu, mem, machines, counts
        self.tasks = tasks

    def __len__(self) -> int:
        return len(self.machines)

    def __iter__(self) -> Iterator[PlanRow]:
        return map(PlanRow, self.machines, self.counts)


#: What a commit accepts or rejects when that part is empty.
EMPTY_PLAN = Plan(0.0, 0.0, (), ())


class CommitResult(NamedTuple):
    """Outcome of one commit attempt."""

    accepted: Plan
    rejected: Plan
    #: Lower-precedence tasks evicted to make room (preempting commits).
    preempted_tasks: int = 0
    #: With tracing on, one ``[machine, tasks, cause]`` per rejection,
    #: for the attempt's ``sched.attempt`` record; empty otherwise.
    conflicts: list | tuple = ()

    @property
    def accepted_tasks(self) -> int:
        return self.accepted.tasks

    @property
    def rejected_tasks(self) -> int:
        return self.rejected.tasks

    @property
    def conflicted(self) -> bool:
        """Whether this attempt experienced at least one conflict.

        The paper's *conflict fraction* counts, per job, how many commit
        attempts conflicted; a value of 3 means four attempts.
        """
        return bool(self.rejected.machines)


def commit(
    state: CellState,
    plan: Plan,
    snapshot: CellSnapshot,
    conflict_mode: ConflictMode = ConflictMode.FINE,
    commit_mode: CommitMode = CommitMode.INCREMENTAL,
    *,
    tracing: bool = False,
) -> CommitResult:
    """Attempt to commit a transaction's plan to the master cell state.

    The plan was made against ``snapshot``; the master copy may have
    moved on since. Returns the plans of the tasks applied and rejected
    (incremental commits split a machine at task granularity, "only
    those changes that do not result in an overcommitted machine are
    accepted"). One walk tests and splits the plan, and
    :meth:`CellState.claim_batch` applies the accepted part: a plan
    names each machine once, so the commit is exactly a serial
    application of it, and a failed all-or-nothing transaction leaves
    the master copy untouched.

    With ``tracing`` (the caller's recorder is on), the result's
    ``conflicts`` name each rejection's machine, rejected tasks and
    cause (``stale_sequence``, ``partial_capacity`` or ``capacity``).
    """
    cpu, mem, machines, counts = plan.cpu, plan.mem, plan.machines, plan.counts
    if not machines:
        return CommitResult(plan, plan)

    conflicts: list[list] | tuple = [] if tracing else ()
    ok_machines, ok_counts, bad_machines, bad_counts = [], [], [], []

    # Python floats and ints from buffer views: the per-machine work runs
    # on unboxed scalars (same IEEE-754 results as ``np.float64``).
    coarse = conflict_mode is ConflictMode.COARSE
    incremental = commit_mode is CommitMode.INCREMENTAL
    cpu_at, mem_at, live_seq = state._cpu_view, state._mem_view, state._seq_view
    seen_seq = memoryview(snapshot.seq) if coarse else None
    for machine, count in zip(machines, counts):
        if coarse and live_seq[machine] != seen_seq[machine]:
            # Coarse-grained: any change to the machine since sync is a
            # conflict, even if the tasks would still fit.
            bad_machines.append(machine)
            bad_counts.append(count)
            if tracing:
                conflicts.append([machine, count, "stale_sequence"])
            continue
        # How many of the machine's tasks still fit on the live machine.
        ok = count
        if cpu > 0:
            limit = int((cpu_at[machine] + EPSILON) // cpu)
            if limit < ok:
                ok = limit
        if mem > 0:
            limit = int((mem_at[machine] + EPSILON) // mem)
            if limit < ok:
                ok = limit
        if ok >= count:
            ok_machines.append(machine)
            ok_counts.append(count)
            continue
        if ok > 0 and incremental:
            ok_machines.append(machine)
            ok_counts.append(ok)
        else:
            ok = 0
        bad_machines.append(machine)
        bad_counts.append(count - ok)
        if tracing:
            conflicts.append([machine, count - ok, "partial_capacity" if ok else "capacity"])

    if not bad_machines:
        accepted, rejected = plan, EMPTY_PLAN
    elif not incremental:
        # Gang scheduling: one conflict rejects the entire transaction.
        return CommitResult(EMPTY_PLAN, plan, 0, conflicts)
    else:
        accepted = Plan(cpu, mem, ok_machines, ok_counts)
        rejected = Plan(cpu, mem, bad_machines, bad_counts)
    state.claim_batch(accepted)
    return CommitResult(accepted, rejected, 0, conflicts)
