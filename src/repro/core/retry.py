"""Omega conflict-retry policies.

The paper's schedulers handle a commit conflict by resyncing and trying
again immediately (section 3.4). That is ``immediate``, the default: a
scheduler with ``retry_policy=None`` requeues a conflicted job at the
head of its queue, bounded only by its attempt limit. Section 3.6
observes where that breaks down — "a large job can starve" when every
attempt conflicts — and adopts "incremental transactions, which accept
all but the conflicting changes". ``starvation``
(:class:`StarvationEscalationPolicy`) is that remedy: a conflicted job
backs off to the back of the queue, switches to incremental commits
after ``escalate_after`` conflicts, and is abandoned once it has
conflicted more than :data:`MAX_CONFLICT_RETRIES` times.

A policy is a deterministic function of (job state, its own named
random stream), so fault-injected sweeps replay exactly under the
determinism gate and ``--jobs N``; sweep points carry the picklable
:class:`RetryPolicyConfig` and each worker builds the policy from its
run's stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workload.job import Job

#: Policy names accepted by :class:`RetryPolicyConfig` and the CLI.
RETRY_POLICIES = ("immediate", "starvation")

#: The backoff after the k-th conflict is ``BASE_DELAY * FACTOR**(k-1)``
#: seconds, clamped to ``MAX_DELAY``, stretched by a factor drawn from
#: ``[1, 1 + JITTER)``.
BASE_DELAY = 1.0
FACTOR = 2.0
MAX_DELAY = 60.0
JITTER = 0.5
#: Conflicts after which a job is abandoned (reason ``conflict-cap``),
#: so even adversarial conflict schedules terminate.
MAX_CONFLICT_RETRIES = 100


@dataclass(frozen=True)
class RetryPolicyConfig:
    """Picklable choice of policy: ``kind`` is one of
    :data:`RETRY_POLICIES`; ``escalate_after`` applies to ``starvation``."""

    kind: str = "immediate"
    escalate_after: int = 3

    def __post_init__(self) -> None:
        if self.kind not in RETRY_POLICIES:
            raise ValueError(
                f"unknown retry policy {self.kind!r}; choose from {RETRY_POLICIES}"
            )


def nominal_delay(conflicts: int) -> float:
    """The jitter-free backoff after the ``conflicts``-th conflict."""
    if conflicts < 1:
        raise ValueError(f"conflicts must be >= 1, got {conflicts}")
    return min(BASE_DELAY * FACTOR ** (conflicts - 1), MAX_DELAY)


class StarvationEscalationPolicy:
    """Backoff at the back of the queue plus the section 3.6 escalation.

    Policies see the job *after* its conflict counter was bumped, so
    ``job.conflicts`` is 1 on the first conflicted attempt.
    ``escalate_after=1`` escalates on the first conflict, which beats
    any later trigger on contended gang workloads (docs/RESILIENCE.md,
    "Escalate early"). ``rng`` must be the scheduler's named
    :class:`~repro.sim.random.RandomStreams` stream.
    """

    name = "starvation"

    def __init__(self, rng: np.random.Generator, escalate_after: int = 3) -> None:
        if escalate_after < 1:
            raise ValueError(f"escalate_after must be >= 1, got {escalate_after}")
        self._rng = rng
        self.escalate_after = escalate_after

    def delay(self, job: Job) -> float | None:
        """Seconds ``job`` waits before it requeues at the back after its
        latest conflict, or None once it is past the conflict cap."""
        if job.conflicts > MAX_CONFLICT_RETRIES:
            return None
        return nominal_delay(job.conflicts) * (1.0 + JITTER * float(self._rng.random()))

    def escalates(self, job: Job) -> bool:
        """Whether ``job`` switches to incremental commits now."""
        return not job.escalated and job.conflicts >= self.escalate_after
