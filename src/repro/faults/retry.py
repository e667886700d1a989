"""Pluggable Omega conflict-retry policies.

The paper's schedulers handle a commit conflict by resyncing and trying
again immediately (section 3.4) — and section 3.6 observes where that
breaks down: "a large job can starve" when every attempt conflicts, and
the remedy the authors adopt is "incremental transactions, which accept
all but the conflicting changes". This module makes that whole design
space a first-class, swappable policy:

``immediate``
    The paper's behaviour: retry at the head of the queue with no
    delay, bounded only by the scheduler's overall attempt limit.
``capped``
    Immediate retries up to ``max_conflict_retries`` conflicts, then
    the job is **abandoned** — an explicit terminal state counted
    separately in :class:`repro.metrics.MetricsCollector`.
``backoff``
    Exponential backoff with deterministic jitter: the k-th conflict
    delays the retry by ``base_delay * factor**(k-1)`` (clamped to
    ``max_delay``), stretched by a jitter factor drawn from the
    policy's named random stream. OCC contention control, per the
    paper's section 8 nod to "techniques from the database community".
``starvation``
    Backoff plus the section 3.6 escalation: after ``escalate_after``
    conflicts the job is switched to incremental commit mode (gang
    all-or-nothing semantics are dropped so partial progress lands),
    and a hard conflict cap still bounds the loop.

Every policy is a deterministic function of (job state, its own RNG
stream): two schedulers built from the same
:class:`RetryPolicyConfig` and the same ``derive_seed``/``fork`` stream
produce identical decision sequences, which is what lets fault-injected
sweeps pass the runtime determinism gate — including under ``--jobs N``
parallel execution, where each worker rebuilds its policies from the
picklable config.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass

import numpy as np

from repro.workload.job import Job


class RetryAction(enum.Enum):
    """What to do with a job whose commit just conflicted."""

    RETRY = "retry"
    ABANDON = "abandon"


@dataclass(frozen=True)
class RetryDecision:
    """One policy verdict for one conflicted attempt."""

    action: RetryAction
    #: Simulated seconds to wait before requeueing (0 = immediately).
    delay: float = 0.0
    #: Requeue at the head of the queue (the paper's behaviour) or the
    #: back (let other jobs through first).
    at_front: bool = True
    #: Switch the job to incremental commit mode from now on (the
    #: section 3.6 starvation remedy for gang-scheduled jobs).
    escalate: bool = False


#: The decision that reproduces the paper byte-for-byte.
IMMEDIATE_RETRY = RetryDecision(action=RetryAction.RETRY)


class RetryPolicy(abc.ABC):
    """Decides how a scheduler handles conflict retries for one job.

    Policies see the job *after* its conflict counter was bumped, so
    ``job.conflicts`` is 1 on the first conflicted attempt.
    """

    #: Stable identifier used in config, tables and trace events.
    name: str = ""

    @abc.abstractmethod
    def decide(self, job: Job) -> RetryDecision:
        """The verdict for ``job``'s latest conflicted attempt."""


class ImmediateRetryPolicy(RetryPolicy):
    """The paper's default: retry now, at the head of the queue.

    The scheduler's ``attempt_limit`` (section 4's 1,000-attempt
    abandonment ceiling) remains the only bound; this policy itself
    never abandons.
    """

    name = "immediate"

    def decide(self, job: Job) -> RetryDecision:
        return IMMEDIATE_RETRY


class CappedRetryPolicy(RetryPolicy):
    """Immediate retries up to a conflict ceiling, then abandon.

    Bounds the unbounded-retry hazard: a permanently-conflicting job
    terminates in the explicit ``abandoned`` state (counted under
    ``jobs_abandoned_conflict``) instead of burning attempts until the
    generic limit.
    """

    name = "capped"

    def __init__(self, max_conflict_retries: int = 50) -> None:
        if max_conflict_retries < 1:
            raise ValueError(
                f"max_conflict_retries must be >= 1, got {max_conflict_retries}"
            )
        self.max_conflict_retries = max_conflict_retries

    def decide(self, job: Job) -> RetryDecision:
        if job.conflicts > self.max_conflict_retries:
            return RetryDecision(action=RetryAction.ABANDON)
        return IMMEDIATE_RETRY


class ExponentialBackoffPolicy(RetryPolicy):
    """Exponential backoff with deterministic jitter.

    The nominal delay after the k-th conflict is
    ``base_delay * factor**(k-1)``, clamped to ``max_delay`` — a
    monotone, bounded sequence. Jitter stretches each delay by a factor
    in ``[1, 1 + jitter)`` drawn from ``rng``; keeping
    ``jitter <= factor - 1`` preserves (non-strict) monotonicity.
    Conflicted jobs requeue at the *back*: a backing-off job must not
    block the queue head while it waits.
    """

    name = "backoff"

    def __init__(
        self,
        rng: np.random.Generator,
        base_delay: float = 1.0,
        factor: float = 2.0,
        max_delay: float = 60.0,
        jitter: float = 0.5,
        max_conflict_retries: int | None = None,
    ) -> None:
        if base_delay <= 0:
            raise ValueError(f"base_delay must be positive, got {base_delay}")
        if factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {factor}")
        if max_delay < base_delay:
            raise ValueError(
                f"max_delay {max_delay} must be >= base_delay {base_delay}"
            )
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        if max_conflict_retries is not None and max_conflict_retries < 1:
            raise ValueError(
                f"max_conflict_retries must be >= 1, got {max_conflict_retries}"
            )
        self._rng = rng
        self.base_delay = base_delay
        self.factor = factor
        self.max_delay = max_delay
        self.jitter = jitter
        self.max_conflict_retries = max_conflict_retries

    def nominal_delay(self, conflicts: int) -> float:
        """The jitter-free delay after the ``conflicts``-th conflict."""
        if conflicts < 1:
            raise ValueError(f"conflicts must be >= 1, got {conflicts}")
        return min(self.base_delay * self.factor ** (conflicts - 1), self.max_delay)

    def decide(self, job: Job) -> RetryDecision:
        if (
            self.max_conflict_retries is not None
            and job.conflicts > self.max_conflict_retries
        ):
            return RetryDecision(action=RetryAction.ABANDON)
        delay = self.nominal_delay(job.conflicts)
        if self.jitter > 0:
            delay *= 1.0 + self.jitter * float(self._rng.random())
        return RetryDecision(action=RetryAction.RETRY, delay=delay, at_front=False)


class StarvationEscalationPolicy(RetryPolicy):
    """Backoff plus the paper's section 3.6 starvation remedy.

    After ``escalate_after`` conflicts the job is switched to
    incremental commit mode — a gang-scheduled (all-or-nothing) job
    stops being starved by repeated whole-transaction aborts and starts
    landing the non-conflicting subset of its tasks. A hard conflict
    cap (``max_conflict_retries``) still guarantees termination for
    adversarial conflict schedules where even incremental commits make
    no progress. ``escalate_after=1`` escalates on the first conflict,
    which beats any later trigger on contended gang workloads
    (docs/RESILIENCE.md, "Escalate early").
    """

    name = "starvation"

    def __init__(
        self,
        rng: np.random.Generator,
        escalate_after: int = 3,
        base_delay: float = 0.5,
        factor: float = 2.0,
        max_delay: float = 30.0,
        jitter: float = 0.5,
        max_conflict_retries: int = 100,
    ) -> None:
        if escalate_after < 1:
            raise ValueError(f"escalate_after must be >= 1, got {escalate_after}")
        self.escalate_after = escalate_after
        self._backoff = ExponentialBackoffPolicy(
            rng,
            base_delay=base_delay,
            factor=factor,
            max_delay=max_delay,
            jitter=jitter,
            max_conflict_retries=max_conflict_retries,
        )
        self.max_conflict_retries = max_conflict_retries

    def decide(self, job: Job) -> RetryDecision:
        decision = self._backoff.decide(job)
        if decision.action is RetryAction.ABANDON or job.escalated:
            return decision
        if job.conflicts >= self.escalate_after:
            return RetryDecision(
                action=RetryAction.RETRY,
                delay=decision.delay,
                at_front=decision.at_front,
                escalate=True,
            )
        return decision


#: Policy names accepted by :class:`RetryPolicyConfig` and the CLI.
RETRY_POLICIES = ("immediate", "capped", "backoff", "starvation")


@dataclass(frozen=True)
class RetryPolicyConfig:
    """Picklable recipe for building a :class:`RetryPolicy`.

    Sweep points must cross process boundaries under ``--jobs N``, so
    configs carry only primitives; each worker builds the stateful
    policy from its run's own named random stream.
    """

    kind: str = "immediate"
    max_conflict_retries: int | None = None
    base_delay: float = 1.0
    factor: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.5
    escalate_after: int = 3

    def __post_init__(self) -> None:
        if self.kind not in RETRY_POLICIES:
            raise ValueError(
                f"unknown retry policy {self.kind!r}; choose from {RETRY_POLICIES}"
            )

    def build(self, rng: np.random.Generator) -> RetryPolicy:
        """Build the policy, drawing jitter from ``rng`` (a named
        :class:`~repro.sim.random.RandomStreams` stream)."""
        if self.kind == "immediate":
            return ImmediateRetryPolicy()
        if self.kind == "capped":
            return CappedRetryPolicy(
                max_conflict_retries=self.max_conflict_retries or 50
            )
        if self.kind == "backoff":
            return ExponentialBackoffPolicy(
                rng,
                base_delay=self.base_delay,
                factor=self.factor,
                max_delay=self.max_delay,
                jitter=self.jitter,
                max_conflict_retries=self.max_conflict_retries,
            )
        return StarvationEscalationPolicy(
            rng,
            escalate_after=self.escalate_after,
            base_delay=self.base_delay,
            factor=self.factor,
            max_delay=self.max_delay,
            jitter=self.jitter,
            max_conflict_retries=self.max_conflict_retries or 100,
        )
