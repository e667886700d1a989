"""Cell state: the shared master copy of resource allocations.

Paper section 3.4: "We maintain a resilient master copy of the resource
allocations in the cluster, which we call cell state. Each scheduler is
given a private, local, frequently-updated copy of cell state that it
uses for making scheduling decisions."

:class:`CellState` is the master copy; :meth:`CellState.snapshot`
produces the private copy (a :class:`CellSnapshot`). Per-machine
sequence numbers support the coarse-grained conflict detection variant
of section 5.2 ("a simple sequence number in the machine's state
object") and are bumped on every state change.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.cluster import Cell

if TYPE_CHECKING:  # pragma: no cover - import cycle (transaction -> cellstate)
    from repro.core.transaction import Plan

#: Tolerance for floating-point resource accounting. A machine is
#: considered able to hold a task if the request exceeds the free amount
#: by no more than this.
EPSILON = 1e-9

#: How many mutations the master's dirty-machine changelog remembers.
#: A snapshot that fell further behind than this resyncs with a full
#: copy instead of a delta (see :meth:`CellSnapshot.resync`).
DEFAULT_CHANGELOG_CAPACITY = 4096


class OvercommitError(RuntimeError):
    """Raised when an operation would over-commit a machine.

    Commits never raise this (conflicting claims are *rejected*, not
    applied); it guards direct mutation paths against bugs.
    """


class CellSnapshot:
    """A scheduler's private, local copy of cell state.

    Cheap to take (three array copies) and read-only from the master's
    point of view: schedulers may freely mutate their snapshot while
    planning (placement subtracts planned claims so one job's tasks
    stack correctly), and the master copy is only changed by
    :func:`repro.core.transaction.commit`.

    A snapshot remembers the master ``version`` it was taken at, which
    lets :meth:`resync` refresh it *incrementally*: instead of re-copying
    all three per-machine arrays, only the machines the master touched
    since (plus any the holder dirtied locally, see
    :meth:`note_local_write`) are re-copied. This is the hot-path
    optimisation for the Omega retry loop — the paper's
    "frequently-updated copy" (§3.4) no longer costs O(machines) per
    transaction.
    """

    __slots__ = (
        "free_cpu",
        "free_mem",
        "seq",
        "time",
        "version",
        "_local_dirty",
    )

    def __init__(
        self,
        free_cpu: np.ndarray,
        free_mem: np.ndarray,
        seq: np.ndarray,
        time: float,
        version: int = 0,
    ) -> None:
        self.free_cpu = free_cpu
        self.free_mem = free_mem
        self.seq = seq
        self.time = time
        #: Master :attr:`CellState.version` this snapshot reflects.
        self.version = version
        self._local_dirty: set[int] = set()

    @property
    def num_machines(self) -> int:
        return self.free_cpu.shape[0]

    def note_local_write(self, machine: int) -> None:
        """Record that the holder mutated ``machine`` in this snapshot.

        Planning scratch-writes (e.g. hot-machine masking) are invisible
        to the master's changelog; registering them here makes
        :meth:`resync` restore those machines from the master copy even
        when the master itself did not touch them.
        """
        self._local_dirty.add(int(machine))

    def resync(self, state: "CellState", time: float | None = None) -> "CellSnapshot":
        """Refresh this snapshot to the master's current state, in place.

        Applies only the machines the master changed since this
        snapshot's :attr:`version` (:meth:`CellState.changed_since`),
        plus locally-dirtied ones; falls back to a full three-array copy
        when the delta would touch a quarter of the cell or more, or
        when the bounded changelog no longer covers the gap. Either way
        the result is element-wise identical to a fresh
        :meth:`CellState.snapshot` (property-tested in
        ``tests/core/test_resync.py``).
        """
        behind = state.version - self.version
        if behind < 0:
            raise ValueError(
                f"snapshot version {self.version} is ahead of master "
                f"version {state.version}; resync against the state the "
                "snapshot was taken from"
            )
        if time is not None:
            self.time = time
        num_machines = state.num_machines
        if behind * 4 >= num_machines:
            self._full_sync(state)
        elif behind or self._local_dirty:
            # Duplicate indices are harmless — every write copies the
            # master's value for that machine — so no dedup/sort pass.
            index = state.changed_since(self.version)
            if index is not None and self._local_dirty:
                index = np.concatenate(
                    [index, np.fromiter(sorted(self._local_dirty), dtype=np.intp)]
                )
            if index is None or index.size * 4 >= num_machines:
                self._full_sync(state)
            else:
                self.free_cpu[index] = state.free_cpu[index]
                self.free_mem[index] = state.free_mem[index]
                self.seq[index] = state.seq[index]
        self._local_dirty.clear()
        self.version = state.version
        return self

    def _full_sync(self, state: "CellState") -> None:
        np.copyto(self.free_cpu, state.free_cpu)
        np.copyto(self.free_mem, state.free_mem)
        np.copyto(self.seq, state.seq)


class CellState:
    """The shared master copy of per-machine free resources.

    Invariants (property-tested in ``tests/core/test_cellstate.py``):

    * ``0 <= free <= capacity`` in both dimensions on every machine,
    * used totals equal capacity minus free,
    * sequence numbers never decrease.
    """

    def __init__(
        self, cell: Cell, changelog_capacity: int = DEFAULT_CHANGELOG_CAPACITY
    ) -> None:
        if changelog_capacity < 0:
            raise ValueError(
                f"changelog_capacity must be >= 0, got {changelog_capacity}"
            )
        self.cell = cell
        self.free_cpu = cell.cpu_capacity.copy()
        self.free_mem = cell.mem_capacity.copy()
        self.seq = np.zeros(len(cell), dtype=np.int64)
        # Buffer views of the same memory: the scalar paths (claim,
        # release, commit) index these and get Python floats and ints,
        # with none of ``ndarray`` indexing's boxing; every vector path
        # uses the arrays.
        self._cpu_view = memoryview(self.free_cpu)
        self._mem_view = memoryview(self.free_mem)
        self._seq_view = memoryview(self.seq)
        self._cpu_capacity_view = memoryview(cell.cpu_capacity)
        self._mem_capacity_view = memoryview(cell.mem_capacity)
        self._used_cpu = 0.0
        self._used_mem = 0.0
        #: Global mutation counter: bumped once per claim/release.
        self.version = 0
        #: How many of the latest mutations :meth:`changed_since` can
        #: list; a snapshot at version ``v`` can delta-sync iff
        #: ``version - v <= changelog_capacity``.
        self.changelog_capacity = changelog_capacity
        # The changelog: a ring holding the machine of mutation ``v``
        # (the one that made ``version`` ``v + 1``) at ``v % len``. At
        # capacity 0 its one slot is written and never read.
        self._ring_size = max(changelog_capacity, 1)
        self._ring = np.zeros(self._ring_size, dtype=np.intp)
        self._ring_view = memoryview(self._ring)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def num_machines(self) -> int:
        return len(self.cell)

    @property
    def used_cpu(self) -> float:
        return self._used_cpu

    @property
    def used_mem(self) -> float:
        return self._used_mem

    @property
    def cpu_utilization(self) -> float:
        return self._used_cpu / self.cell.total_cpu

    @property
    def mem_utilization(self) -> float:
        return self._used_mem / self.cell.total_mem

    @property
    def idle_cpu(self) -> float:
        return self.cell.total_cpu - self._used_cpu

    @property
    def idle_mem(self) -> float:
        return self.cell.total_mem - self._used_mem

    def snapshot(self, time: float = 0.0) -> CellSnapshot:
        """Take a private copy of the current state (sync point of an
        Omega transaction)."""
        return CellSnapshot(
            self.free_cpu.copy(),
            self.free_mem.copy(),
            self.seq.copy(),
            time,
            version=self.version,
        )

    def changed_since(self, version: int) -> np.ndarray | None:
        """The machines mutated since ``version``, oldest first, one
        entry per mutation (a machine mutated twice is listed twice).

        ``None`` when more than :attr:`changelog_capacity` mutations
        happened since: the changelog no longer covers the gap.
        """
        behind = self.version - version
        if behind < 0:
            raise ValueError(
                f"version {version} is ahead of master version {self.version}"
            )
        if behind > self.changelog_capacity:
            return None
        ring = self._ring
        size = self._ring_size
        start = version % size
        end = start + behind
        if end <= size:
            return ring[start:end].copy()
        return np.concatenate((ring[start:], ring[: end - size]))

    def fits(self, machine: int, cpu: float, mem: float, count: int = 1) -> bool:
        """Whether ``count`` tasks of the given size fit on ``machine`` now."""
        return (
            self.free_cpu[machine] + EPSILON >= cpu * count
            and self.free_mem[machine] + EPSILON >= mem * count
        )

    # ------------------------------------------------------------------
    # Mutations (used by transaction commit and task completion)
    # ------------------------------------------------------------------
    def claim(self, machine: int, cpu: float, mem: float, count: int = 1) -> None:
        """Allocate ``count`` tasks' resources on ``machine``.

        Raises :class:`OvercommitError` if they do not fit — commit
        logic must check first; this is the last-line safety net that
        keeps the master copy consistent ("all must agree on ... a
        common notion of whether a machine is full"). A negative or NaN
        size raises :class:`ValueError` with nothing written.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self._claim(cpu, mem, (machine,), (count,))

    def claim_batch(self, plan: "Plan") -> None:
        """:meth:`claim` every entry of ``plan``, in order, in one walk: a
        misfit raises :class:`OvercommitError` with the entries before
        it applied."""
        self._claim(plan.cpu, plan.mem, plan.machines, plan.counts)

    def _claim(
        self, cpu: float, mem: float, machines: Sequence[int], counts: Sequence[int]
    ) -> None:
        # The one body of claim and claim_batch. Each view field is read
        # once as a Python float (``np.float64``'s IEEE-754 results) and
        # stored once; used totals and version are stored even on a raise.
        if not (cpu >= 0.0 and mem >= 0.0):
            raise ValueError(
                f"claim sizes must be non-negative numbers, got cpu={cpu}, mem={mem}"
            )
        cpu_view, mem_view, seq_view = self._cpu_view, self._mem_view, self._seq_view
        ring, ring_size, version = self._ring_view, self._ring_size, self.version
        used_cpu, used_mem = self._used_cpu, self._used_mem
        try:
            for machine, count in zip(machines, counts):
                total_cpu = cpu * count
                total_mem = mem * count
                free_cpu = cpu_view[machine]
                free_mem = mem_view[machine]
                if free_cpu + EPSILON < total_cpu or free_mem + EPSILON < total_mem:
                    raise OvercommitError(
                        f"claim of {count} x ({cpu} cpu, {mem} mem) does not fit on "
                        f"machine {machine} (free: {free_cpu} cpu, {free_mem} mem)"
                    )
                # Clamp float dust: an "exactly full" machine reads as full.
                free_cpu -= total_cpu
                free_mem -= total_mem
                cpu_view[machine] = 0.0 if free_cpu < 0.0 else free_cpu
                mem_view[machine] = 0.0 if free_mem < 0.0 else free_mem
                used_cpu += total_cpu
                used_mem += total_mem
                seq_view[machine] += 1
                ring[version % ring_size] = machine
                version += 1
        finally:
            self._used_cpu, self._used_mem, self.version = used_cpu, used_mem, version

    def release(self, machine: int, cpu: float, mem: float, count: int = 1) -> None:
        """Return ``count`` tasks' resources on ``machine`` (task end or
        preemption). A negative or NaN size raises :class:`ValueError`
        with nothing written."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if not (cpu >= 0.0 and mem >= 0.0):
            raise ValueError(
                f"release sizes must be non-negative numbers, got cpu={cpu}, mem={mem}"
            )
        self._release(((machine, count, cpu, mem),))

    def release_batch(self, plan: "Plan") -> None:
        """:meth:`release` every entry of ``plan`` (its tasks ended), in
        order, in one walk (``Plan`` refused bad sizes)."""
        self._release(zip(plan.machines, plan.counts, repeat(plan.cpu), repeat(plan.mem)))

    def _release(self, rows: Iterable[tuple[int, int, float, float]]) -> None:
        # The one loop that frees resources: release, release_batch and
        # the initial fill's slices (repro.core.fill.populate) feed it
        # rows ``(machine, count, cpu, mem)`` whose sizes their entry
        # points checked. On locals as _claim; an over-release raises
        # with the rows before it applied.
        cpu_view, mem_view, seq_view = self._cpu_view, self._mem_view, self._seq_view
        cpu_capacities, mem_capacities = self._cpu_capacity_view, self._mem_capacity_view
        ring, ring_size, version = self._ring_view, self._ring_size, self.version
        used_cpu, used_mem = self._used_cpu, self._used_mem
        try:
            for machine, count, cpu, mem in rows:
                old_free_cpu = cpu_view[machine]
                old_free_mem = mem_view[machine]
                cpu_capacity = cpu_capacities[machine]
                mem_capacity = mem_capacities[machine]
                new_free_cpu = old_free_cpu + cpu * count
                new_free_mem = old_free_mem + mem * count
                if new_free_cpu > cpu_capacity + EPSILON or new_free_mem > mem_capacity + EPSILON:
                    raise OvercommitError(
                        f"release of {count} x ({cpu} cpu, {mem} mem) on machine "
                        f"{machine} exceeds its capacity"
                    )
                # Clamp float dust at capacity, and shrink the used totals by
                # the delta actually applied to the free arrays, or they drift
                # away from ``capacity - free.sum()``.
                if new_free_cpu > cpu_capacity:
                    new_free_cpu = cpu_capacity
                if new_free_mem > mem_capacity:
                    new_free_mem = mem_capacity
                cpu_view[machine] = new_free_cpu
                mem_view[machine] = new_free_mem
                used_cpu -= new_free_cpu - old_free_cpu
                used_mem -= new_free_mem - old_free_mem
                used_cpu = 0.0 if used_cpu < 0.0 else used_cpu
                used_mem = 0.0 if used_mem < 0.0 else used_mem
                seq_view[machine] += 1
                ring[version % ring_size] = machine
                version += 1
        finally:
            self._used_cpu, self._used_mem, self.version = used_cpu, used_mem, version

    def store_fill(
        self, machines: np.ndarray, free_cpu: list[float], free_mem: list[float],
        used_cpu: float, used_mem: float
    ) -> None:
        """Store the initial fill's walk.

        :func:`repro.core.fill.populate` claims one task on each of
        ``machines`` (an integer array), in order, with :meth:`claim`'s
        fit test and float rule applied to whole-array Python copies,
        and its used-total additions to the task columns.
        This stores the free arrays and used totals the walk ended with
        and does the rest of what those claims do: one ``seq`` bump each,
        and ``version`` and the changelog advanced by their count.
        """
        self.free_cpu[:] = free_cpu
        self.free_mem[:] = free_mem
        self._used_cpu = used_cpu
        self._used_mem = used_mem
        np.add.at(self.seq, machines, 1)
        # Only the last ``changelog_capacity`` entries can be read back:
        # write those, in at most two slices (the second at the wrap).
        ring = self._ring
        kept = min(len(machines), self.changelog_capacity)
        start = (self.version + len(machines) - kept) % self._ring_size
        split = min(kept, self._ring_size - start)
        tail = machines[len(machines) - kept :]
        ring[start : start + split] = tail[:split]
        ring[: kept - split] = tail[split:]
        self.version += len(machines)
