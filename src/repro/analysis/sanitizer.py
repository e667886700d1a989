"""omega-san: a runtime transaction-isolation sanitizer.

The static rules prove what the *source* can reach; this module checks
what a *run* actually does. When active (``--sanitize`` on simulation
commands, ``OMEGA_SAN=1`` in the environment), the cell-state hot paths
call into the module-global :data:`ACTIVE` sanitizer, which tracks
ownership and epochs of every :class:`~repro.core.cellstate.CellState`
and :class:`~repro.core.cellstate.CellSnapshot` and raises
:class:`IsolationViolation` the moment one of the section 3.4
isolation guarantees is broken:

``write-outside-commit``
    master state mutated (``claim``/``release``) outside a sanctioned
    commit scope — the paper's "cell state is only changed by the
    atomic commit".
``stale-snapshot-read``
    a scheduler plans against (or commits from) a snapshot whose source
    state advanced more than ``staleness_bound`` versions since the
    last ``resync``.
``foreign-snapshot-write``
    a scheduler mutates another scheduler's private snapshot (aliasing
    across the "private, local copy" boundary).
``non-serializable-commit``
    the master's resource arrays diverge from the replayed history of
    accepted claims — some write bypassed ``claim``/``release``
    arithmetic, so the commit log is no longer conflict-serializable.

Every hook is guarded at the call site by ``ACTIVE is None``, so the
off mode costs one module-attribute load and an identity test per hook
(``tests/analysis/test_sanitizer.py`` asserts the off mode checks
nothing; every ``bench/`` workload pays the guards in its ``run_s``).
Violations raise with simulated-time context and a captured stack, and
emit ``san.*`` trace events when tracing is on.

This module deliberately imports nothing from ``repro.core`` —
``repro.core.cellstate`` imports *it*, and the cycle must stay one-way.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from repro.obs import recorder as _obs

#: Mirrors repro.core.cellstate.EPSILON (not imported: see module doc).
_EPSILON = 1e-9
#: Absolute tolerance when comparing the shadow replay against the
#: master arrays. The shadow applies bit-identical float arithmetic, so
#: any real divergence is far larger than this.
_DIVERGENCE_TOL = 1e-6


class IsolationViolation(RuntimeError):
    """An isolation guarantee was broken at runtime.

    Carries the violation ``kind``, the acting scheduler (if known),
    the simulated time, and the captured Python stack of the violating
    call. Constructed with the message as the sole positional argument
    so it survives pickling across worker processes.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "",
        actor: str | None = None,
        sim_time: float | None = None,
        stack: str | None = None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.actor = actor
        self.sim_time = sim_time
        self.stack = stack


@dataclass(frozen=True)
class SanitizerConfig:
    """Tunables for :class:`Sanitizer`.

    ``staleness_bound`` is in master *versions* (one version = one
    claim/release). Omega snapshots are legitimately stale by design —
    think time elapses between sync and commit and conflicts are the
    paper's answer — so the default only catches a snapshot that was
    never resynced while the world moved on wholesale.
    """

    staleness_bound: int | None = 10_000
    #: How many commit-log entries to keep for diagnostics.
    commit_log_capacity: int = 1024


@dataclass
class _CommitRecord:
    """One committed transaction, for the bounded commit log."""

    index: int
    actor: str | None
    snapshot_version: int
    state_version: int
    machines: tuple[int, ...]
    tasks: int


class _Scope:
    """Re-entrant sanctioned-write scope (``with san.scope(...)``)."""

    __slots__ = ("_san", "reason")

    def __init__(self, san: "Sanitizer", reason: str) -> None:
        self._san = san
        self.reason = reason

    def __enter__(self) -> "_Scope":
        self._san._scope_depth += 1
        self._san._scope_reasons.append(self.reason)
        return self

    def __exit__(self, *exc: object) -> None:
        self._san._scope_depth -= 1
        self._san._scope_reasons.pop()


class _Acting:
    """Tracks which scheduler is currently running (``with san.acting``)."""

    __slots__ = ("_san", "_name", "_prev")

    def __init__(self, san: "Sanitizer", name: str) -> None:
        self._san = san
        self._name = name
        self._prev: str | None = None

    def __enter__(self) -> "_Acting":
        self._prev = self._san._actor
        self._san._actor = self._name
        return self

    def __exit__(self, *exc: object) -> None:
        self._san._actor = self._prev


class _NullScope:
    """No-op context manager for the inactive fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


NULL_SCOPE = _NullScope()


class Sanitizer:
    """Ownership + epoch tracker for cell state and snapshots."""

    def __init__(self, config: SanitizerConfig | None = None) -> None:
        self.config = config if config is not None else SanitizerConfig()
        self._scope_depth = 0
        self._scope_reasons: list[str] = []
        self._actor: str | None = None
        self._now: Callable[[], float] | None = None
        #: id(snapshot) -> owning scheduler name.
        self._owners: dict[int, str] = {}
        #: id(state) -> (state, shadow_free_cpu, shadow_free_mem).
        self._shadows: dict[int, tuple[Any, np.ndarray, np.ndarray]] = {}
        self.commit_log: list[_CommitRecord] = []
        self._commit_index = 0
        # Counters (also reported by the ``san.final`` trace event).
        self.violations = 0
        self.writes_checked = 0
        self.reads_checked = 0
        self.commits_checked = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin_run(self, now: Callable[[], float] | None = None) -> None:
        """Reset per-run registries and bind the simulated clock.

        Must be called when a new simulation starts: registries are
        keyed by ``id()`` (CellSnapshot has no ``__weakref__`` slot),
        so stale entries from a previous run's recycled objects must
        not leak into the next one.
        """
        self._owners.clear()
        self._shadows.clear()
        self.commit_log.clear()
        self._commit_index = 0
        self._scope_depth = 0
        self._scope_reasons.clear()
        self._actor = None
        self._now = now
        rec = _obs.RECORDER
        if rec.enabled:
            rec.event(
                "san.run",
                staleness_bound=self.config.staleness_bound,
            )

    def scope(self, reason: str) -> _Scope:
        """Sanctioned master-write scope (commit apply, task end, ...)."""
        return _Scope(self, reason)

    def acting(self, name: str) -> _Acting:
        """Mark ``name`` as the scheduler driving the enclosed calls."""
        return _Acting(self, name)

    def scoped(self, fn: Callable[..., Any], reason: str) -> Callable[..., Any]:
        """Wrap a callback so it runs inside a sanctioned scope —
        used for simulator-scheduled task-end releases."""

        def run(*args: Any, **kwargs: Any) -> Any:
            with _Scope(self, reason):
                return fn(*args, **kwargs)

        return run

    # ------------------------------------------------------------------
    # Hooks (call sites guard with ``ACTIVE is not None``)
    # ------------------------------------------------------------------
    def on_sync(self, actor: str, snapshot: Any, state: Any) -> None:
        """A scheduler took or resynced its private snapshot."""
        self._owners[id(snapshot)] = actor
        self._track(state)

    def on_snapshot_use(self, actor: str, snapshot: Any, state: Any) -> None:
        """A scheduler is about to plan placements on ``snapshot``."""
        self.reads_checked += 1
        bound = self.config.staleness_bound
        if bound is None:
            return
        lag = state.version - snapshot.version
        if lag > bound:
            self._violation(
                "stale-snapshot-read",
                f"{actor} reads a snapshot {lag} versions behind master "
                f"(bound {bound}) without resync; decisions would be "
                "made against a world that no longer exists",
                actor=actor,
            )

    def on_snapshot_mutation(self, snapshot: Any) -> None:
        """Someone mutated a snapshot (``note_local_write``/``resync``)."""
        owner = self._owners.get(id(snapshot))
        actor = self._actor
        if owner is not None and actor is not None and actor != owner:
            self._violation(
                "foreign-snapshot-write",
                f"{actor} mutates the private snapshot owned by {owner}; "
                "snapshots are per-scheduler scratch space (§3.4), "
                "aliasing one across schedulers corrupts its owner's "
                "planning",
                actor=actor,
            )

    def on_master_write(
        self, state: Any, op: str, machine: int, cpu: float, mem: float, count: int
    ) -> None:
        """``CellState.claim``/``release`` is about to mutate master
        state. Called *before* the mutation applies."""
        self.writes_checked += 1
        if self._scope_depth == 0:
            self._violation(
                "write-outside-commit",
                f"master cell state {op} of {count} x ({cpu} cpu, {mem} "
                f"mem) on machine {machine} outside the commit path; "
                "only transaction.commit and sanctioned lifecycle scopes "
                "may mutate the master copy (§3.4)",
            )
        entry = self._track(state)
        _, shadow_cpu, shadow_mem = entry
        # The shadow replays the accepted history with the same
        # arithmetic as CellState; if master moved without us, a write
        # bypassed claim/release and the commit log stopped being
        # serializable.
        if (
            abs(float(shadow_cpu[machine]) - float(state.free_cpu[machine]))
            > _DIVERGENCE_TOL
            or abs(float(shadow_mem[machine]) - float(state.free_mem[machine]))
            > _DIVERGENCE_TOL
        ):
            self._violation(
                "non-serializable-commit",
                f"machine {machine} free resources "
                f"({float(state.free_cpu[machine])} cpu, "
                f"{float(state.free_mem[machine])} mem) diverged from the "
                f"committed-claim history "
                f"({float(shadow_cpu[machine])} cpu, "
                f"{float(shadow_mem[machine])} mem): a write bypassed "
                "claim/release, so the commit log no longer "
                "serializes to the master state",
            )
        total_cpu = cpu * count
        total_mem = mem * count
        if op == "claim":
            shadow_cpu[machine] -= total_cpu
            if shadow_cpu[machine] < 0.0:
                shadow_cpu[machine] = 0.0
            shadow_mem[machine] -= total_mem
            if shadow_mem[machine] < 0.0:
                shadow_mem[machine] = 0.0
        else:
            cell = state.cell
            shadow_cpu[machine] = min(
                shadow_cpu[machine] + total_cpu, cell.cpu_capacity[machine]
            )
            shadow_mem[machine] = min(
                shadow_mem[machine] + total_mem, cell.mem_capacity[machine]
            )

    def begin_commit(self, state: Any, snapshot: Any, claims: Iterable[Any]) -> None:
        """A transaction is about to validate+apply against ``state``."""
        self.commits_checked += 1
        bound = self.config.staleness_bound
        if bound is not None:
            lag = state.version - snapshot.version
            if lag > bound:
                owner = self._owners.get(id(snapshot))
                self._violation(
                    "stale-snapshot-read",
                    f"commit from a snapshot {lag} versions behind master "
                    f"(bound {bound}); the transaction's read set no "
                    "longer overlaps the state it validates against",
                    actor=owner or self._actor,
                )

    def end_commit(self, state: Any, snapshot: Any, accepted: Iterable[Any]) -> None:
        """Accepted claims were applied; verify and log the commit."""
        machines = tuple(sorted({claim.machine for claim in accepted}))
        tasks = sum(claim.count for claim in accepted)
        entry = self._shadows.get(id(state))
        if entry is not None:
            _, shadow_cpu, shadow_mem = entry
            for machine in machines:
                if (
                    abs(float(shadow_cpu[machine]) - float(state.free_cpu[machine]))
                    > _DIVERGENCE_TOL
                    or abs(float(shadow_mem[machine]) - float(state.free_mem[machine]))
                    > _DIVERGENCE_TOL
                ):
                    self._violation(
                        "non-serializable-commit",
                        f"after commit, machine {machine} master free "
                        "resources diverged from the committed-claim "
                        "history; the applied transaction is not "
                        "serializable against the commit log",
                    )
        record = _CommitRecord(
            index=self._commit_index,
            actor=self._actor,
            snapshot_version=snapshot.version,
            state_version=state.version,
            machines=machines,
            tasks=tasks,
        )
        self._commit_index += 1
        self.commit_log.append(record)
        if len(self.commit_log) > self.config.commit_log_capacity:
            del self.commit_log[0]

    def final_check(self, states: Iterable[Any]) -> None:
        """End of run: the whole master array must equal the replayed
        history of claims and releases, on every tracked state."""
        for state in states:
            entry = self._shadows.get(id(state))
            if entry is None:
                continue
            _, shadow_cpu, shadow_mem = entry
            bad_cpu = np.flatnonzero(
                np.abs(shadow_cpu - state.free_cpu) > _DIVERGENCE_TOL
            )
            bad_mem = np.flatnonzero(
                np.abs(shadow_mem - state.free_mem) > _DIVERGENCE_TOL
            )
            if bad_cpu.size or bad_mem.size:
                machine = int(bad_cpu[0] if bad_cpu.size else bad_mem[0])
                self._violation(
                    "non-serializable-commit",
                    f"end-of-run check: {bad_cpu.size + bad_mem.size} "
                    "machine entries diverged from the committed-claim "
                    f"history (first: machine {machine}, master "
                    f"{float(state.free_cpu[machine])} cpu vs history "
                    f"{float(shadow_cpu[machine])} cpu); some write "
                    "bypassed claim/release",
                )
        rec = _obs.RECORDER
        if rec.enabled:
            rec.event(
                "san.final",
                writes_checked=self.writes_checked,
                reads_checked=self.reads_checked,
                commits_checked=self.commits_checked,
                violations=self.violations,
            )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _track(self, state: Any) -> tuple[Any, np.ndarray, np.ndarray]:
        entry = self._shadows.get(id(state))
        if entry is None:
            entry = (
                state,
                np.array(state.free_cpu, dtype=float, copy=True),
                np.array(state.free_mem, dtype=float, copy=True),
            )
            self._shadows[id(state)] = entry
        return entry

    def _violation(
        self, kind: str, message: str, actor: str | None = None
    ) -> None:
        self.violations += 1
        actor = actor if actor is not None else self._actor
        sim_time = self._now() if self._now is not None else None
        stack = "".join(traceback.format_stack(limit=16))
        rec = _obs.RECORDER
        if rec.enabled:
            fields: dict[str, Any] = {"kind": kind}
            if actor is not None:
                fields["sched"] = actor
            if sim_time is not None:
                fields["t"] = sim_time
            rec.event("san.violation", **fields)
        context = []
        if actor is not None:
            context.append(f"actor={actor}")
        if sim_time is not None:
            context.append(f"sim_time={sim_time:.6f}")
        suffix = f" [{', '.join(context)}]" if context else ""
        raise IsolationViolation(
            f"omega-san: {kind}: {message}{suffix}",
            kind=kind,
            actor=actor,
            sim_time=sim_time,
            stack=stack,
        )


# ----------------------------------------------------------------------
# Module-global activation
# ----------------------------------------------------------------------
#: The active sanitizer, or None (the near-zero-cost default). Hook
#: sites read this exactly once per operation.
ACTIVE: Sanitizer | None = None


def install(config: SanitizerConfig | None = None) -> Sanitizer:
    """Activate omega-san process-wide; returns the sanitizer."""
    global ACTIVE  # omega-lint: disable=GLB001 -- ambient observer: it checks a run, never steers one
    ACTIVE = Sanitizer(config)
    return ACTIVE


def uninstall() -> None:
    """Deactivate omega-san (hooks return to the fast path)."""
    global ACTIVE  # omega-lint: disable=GLB001 -- ambient observer: it checks a run, never steers one
    ACTIVE = None


def env_enabled() -> bool:
    """Whether ``OMEGA_SAN`` requests sanitizing (for tests/workers)."""
    return os.environ.get("OMEGA_SAN", "") not in ("", "0")


def master_scope(reason: str) -> _Scope | _NullScope:
    """A sanctioned-write scope when active, a no-op otherwise.

    For lifecycle paths that mutate master state by design (initial
    fill, machine failure/repair, Mesos allocator accounting,
    preemption ledger, monolithic/partitioned commit).
    """
    san = ACTIVE
    return san.scope(reason) if san is not None else NULL_SCOPE


def acting_scope(name: str) -> _Acting | _NullScope:
    """An actor-tracking scope when active, a no-op otherwise."""
    san = ACTIVE
    return san.acting(name) if san is not None else NULL_SCOPE
