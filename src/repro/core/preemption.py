"""Precedence-based preemption over shared cell state.

Paper section 3.4: an Omega scheduler "has complete freedom to lay
claim to any available cluster resources provided it has the
appropriate permissions and priority — even ones that another scheduler
has already acquired", and Table 1 lists Omega's cluster-wide policy
model as "free-for-all, priority preemption". The schedulers only have
to agree on the common *precedence* scale.

The paper's high-fidelity simulator disabled preemption ("we found that
they make little difference to the results, but significantly slow down
the simulations"); this module implements it as the documented
extension, with an ablation benchmark
(``benchmarks/bench_ablation_preemption.py``) quantifying exactly that
trade-off on our workloads.

Mechanics:

* every running allocation is registered in an :class:`AllocationLedger`
  keyed by machine, carrying its precedence and an owner callback;
* a preempting commit may count lower-precedence allocations on a
  machine as reclaimable; victims are evicted lowest-precedence-first,
  their resources released, their task-end events cancelled, and their
  owner notified so the preempted tasks can be rescheduled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.core.cellstate import EPSILON, CellState
from repro.core.transaction import Claim, CommitMode, CommitResult
from repro.sim import Event, Simulator

#: Called when an allocation is (partially) evicted: (record, count).
VictimCallback = Callable[["AllocationRecord", int], None]


@dataclass
class AllocationRecord:
    """One registered running allocation (count identical tasks)."""

    #: Numbered from 1 by the owning ledger, so an invariant report
    #: naming a record reads the same however many runs came before.
    record_id: int
    machine: int
    cpu: float
    mem: float
    count: int
    precedence: int
    on_preempt: VictimCallback | None = None
    end_event: Event | None = None
    #: Name of the scheduler that owns this allocation (used by the
    #: post-facto policy monitor, :mod:`repro.core.limits`).
    owner: str | None = None

    @property
    def total_cpu(self) -> float:
        return self.cpu * self.count

    @property
    def total_mem(self) -> float:
        return self.mem * self.count


class AllocationLedger:
    """Per-machine registry of running allocations.

    The ledger is advisory bookkeeping layered over
    :class:`~repro.core.cellstate.CellState`: resource arithmetic still
    flows through ``claim``/``release``, so all cell-state invariants
    hold; the ledger adds the who-owns-what view preemption needs.
    """

    def __init__(self, state: CellState, sim: Simulator) -> None:
        self.state = state
        self.sim = sim
        self._by_machine: dict[int, dict[int, AllocationRecord]] = {}
        self._ids = itertools.count(1)
        self.preempted_tasks = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        claim: Claim,
        precedence: int,
        duration: float,
        on_preempt: VictimCallback | None = None,
        already_claimed: bool = False,
        owner: str | None = None,
    ) -> AllocationRecord:
        """Claim resources for ``claim`` and register the allocation.

        Schedules the normal end-of-task release ``duration`` seconds
        from now; eviction cancels it. Pass ``already_claimed=True``
        when the resources were claimed by an optimistic commit and the
        ledger should only take over lifetime bookkeeping.
        """
        if not already_claimed:
            self.state.claim(claim.machine, claim.cpu, claim.mem, claim.count)
        record = AllocationRecord(
            record_id=next(self._ids),
            machine=claim.machine,
            cpu=claim.cpu,
            mem=claim.mem,
            count=claim.count,
            precedence=precedence,
            on_preempt=on_preempt,
            owner=owner,
        )
        record.end_event = self.sim.after(duration, self._finish, record)
        self._by_machine.setdefault(claim.machine, {})[record.record_id] = record
        return record

    def _finish(self, record: AllocationRecord) -> None:
        """Normal task completion."""
        machine_records = self._by_machine.get(record.machine, {})
        if record.record_id not in machine_records:  # pragma: no cover - guard
            return
        del machine_records[record.record_id]
        self.state.release(record.machine, record.cpu, record.mem, record.count)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def records_on(self, machine: int) -> list[AllocationRecord]:
        return list(self._by_machine.get(machine, {}).values())

    def records(self) -> Iterator[AllocationRecord]:
        """Every running allocation, by machine then record id: a pinned
        order, so float accumulation over it is reproducible (the
        ``unordered_iteration`` check)."""
        for machine in sorted(self._by_machine):
            yield from sorted(
                self._by_machine[machine].values(), key=lambda r: r.record_id
            )

    def usage_by_owner(self) -> dict[str, tuple[float, float]]:
        """Aggregate (cpu, mem) currently held per owning scheduler.

        Unowned allocations (e.g. the initial standing population) are
        grouped under ``"<unowned>"``.
        """
        usage: dict[str, list[float]] = {}
        for record in self.records():
            key = record.owner or "<unowned>"
            totals = usage.setdefault(key, [0.0, 0.0])
            totals[0] += record.total_cpu
            totals[1] += record.total_mem
        return {owner: (cpu, mem) for owner, (cpu, mem) in sorted(usage.items())}

    def preemptible(self, machine: int, below_precedence: int) -> tuple[float, float]:
        """(cpu, mem) reclaimable on ``machine`` from allocations whose
        precedence is strictly below ``below_precedence``."""
        cpu = 0.0
        mem = 0.0
        for record in sorted(
            self._by_machine.get(machine, {}).values(), key=lambda r: r.record_id
        ):
            if record.precedence < below_precedence:
                cpu += record.total_cpu
                mem += record.total_mem
        return cpu, mem

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def evict(
        self,
        machine: int,
        need_cpu: float,
        need_mem: float,
        below_precedence: int,
    ) -> int:
        """Free at least (need_cpu, need_mem) on ``machine`` by evicting
        lowest-precedence victims first. Returns evicted task count.

        Eviction is per-task: a partially-evicted allocation keeps its
        surviving tasks running.
        """
        if need_cpu <= EPSILON and need_mem <= EPSILON:
            return 0
        victims = sorted(
            (
                record
                for record in self._by_machine.get(machine, {}).values()
                if record.precedence < below_precedence
            ),
            key=lambda record: (record.precedence, -record.record_id),
        )
        evicted = 0
        freed_cpu = 0.0
        freed_mem = 0.0
        for record in victims:
            if freed_cpu + EPSILON >= need_cpu and freed_mem + EPSILON >= need_mem:
                break
            take = 0
            while take < record.count and (
                freed_cpu < need_cpu - EPSILON or freed_mem < need_mem - EPSILON
            ):
                take += 1
                freed_cpu += record.cpu
                freed_mem += record.mem
            if take == 0:
                continue
            self._evict_tasks(record, take)
            evicted += take
        return evicted

    def evict_machine(self, machine: int) -> int:
        """Evict *every* allocation on ``machine`` regardless of
        precedence (machine failure semantics). Returns evicted tasks."""
        evicted = 0
        for record in sorted(
            self._by_machine.get(machine, {}).values(), key=lambda r: r.record_id
        ):
            evicted += record.count
            self._evict_tasks(record, record.count)
        return evicted

    def _evict_tasks(self, record: AllocationRecord, count: int) -> None:
        machine_records = self._by_machine[record.machine]
        self.state.release(record.machine, record.cpu, record.mem, count)
        self.preempted_tasks += count
        if count >= record.count:
            del machine_records[record.record_id]
            if record.end_event is not None:
                self.sim.cancel(record.end_event)
        else:
            record.count -= count
        if record.on_preempt is not None:
            record.on_preempt(record, count)


def _claim_headroom(
    state: CellState, ledger: AllocationLedger, claim: Claim, precedence: int
) -> int:
    """How many of the claim's tasks fit into free + preemptible space."""
    free_cpu = state.free_cpu[claim.machine]
    free_mem = state.free_mem[claim.machine]
    reclaimable_cpu, reclaimable_mem = ledger.preemptible(claim.machine, precedence)
    per_task = claim.count
    if claim.cpu > 0:
        per_task = min(
            per_task, int((free_cpu + reclaimable_cpu + EPSILON) // claim.cpu)
        )
    if claim.mem > 0:
        per_task = min(
            per_task, int((free_mem + reclaimable_mem + EPSILON) // claim.mem)
        )
    return per_task


def commit_with_preemption(
    state: CellState,
    ledger: AllocationLedger,
    claims: list[Claim] | tuple[Claim, ...],
    precedence: int,
    commit_mode: CommitMode = CommitMode.INCREMENTAL,
    *,
    tracing: bool = False,
) -> CommitResult:
    """Commit ``claims`` at ``precedence``, evicting lower-precedence
    allocations where free resources alone do not suffice.

    The result carries ``preempted_tasks``. A claim is
    rejected (a conflict) only if even free + preemptible resources
    cannot hold it; partial acceptance splits at task granularity like
    incremental commits. Accepted claims are applied to the master cell
    state, and with ``tracing`` every rejection is a ``capacity``
    conflict of the result (like :func:`repro.core.transaction.commit`);
    the caller then registers them in the ledger with
    ``already_claimed=True``.

    ``ALL_OR_NOTHING`` implements the paper's gang-scheduled
    preemption: either every claim lands (evicting victims as needed) or
    the whole transaction is rejected with *no* evictions — "a
    gang-scheduled job can preempt lower-priority tasks once sufficient
    resources are available and its transaction commits, and allow other
    schedulers' jobs to use the resources in the meantime" (no
    hoarding).
    """
    accepted: list[Claim] = []
    rejected: list[Claim] = []
    preempted = 0
    # Validate a gang against free + preemptible space before touching
    # anything: a failed gang transaction must not evict.
    if commit_mode is CommitMode.ALL_OR_NOTHING and any(
        _claim_headroom(state, ledger, claim, precedence) < claim.count
        for claim in claims
    ):
        rejected, claims = list(claims), ()
    for claim in claims:
        free_cpu = state.free_cpu[claim.machine]
        free_mem = state.free_mem[claim.machine]
        per_task = _claim_headroom(state, ledger, claim, precedence)
        if per_task <= 0:
            rejected.append(claim)
            continue
        ok = min(claim.count, per_task)
        need_cpu = max(0.0, claim.cpu * ok - free_cpu)
        need_mem = max(0.0, claim.mem * ok - free_mem)
        preempted += ledger.evict(claim.machine, need_cpu, need_mem, precedence)
        take = claim if ok == claim.count else Claim(claim.machine, claim.cpu, claim.mem, ok)
        state.claim(take.machine, take.cpu, take.mem, take.count)
        accepted.append(take)
        if ok < claim.count:
            rejected.append(
                Claim(claim.machine, claim.cpu, claim.mem, claim.count - ok)
            )
    conflicts = ()
    if tracing:
        conflicts = [[claim.machine, claim.count, "capacity"] for claim in rejected]
    return CommitResult(tuple(accepted), tuple(rejected), preempted, conflicts)
