"""Predictive conflict avoidance for the Omega commit path.

The retry layer (:mod:`repro.faults.retry`) *reacts* to conflicts after
they happen; this module makes the resilience layer proactive. "Early
Scheduling in Parallel State Machine Replication" (PAPERS.md) shows
that classifying work into conflict classes *before* execution beats
optimistic retry under contention, and the paper's own section 8 points
at "techniques from the database community ... to reduce the likelihood
and effects of interference". :class:`ConflictPredictor` is that
predictor for one Omega scheduler:

* **Contention scores.** Every fine-grained conflict event emitted by
  :func:`repro.core.transaction.commit` (stale-sequence and capacity
  rejections, fed machine-by-machine via the ``on_conflict`` hook)
  bumps an exponentially-decayed per-machine score on the *simulated*
  clock.
* **Hotness view.** :meth:`hot_machines` exposes the top-K machines
  whose decayed score clears a threshold; placement consults it to
  steer :func:`~repro.core.placement.randomized_first_fit` and the
  ordered-fit kernels away from predicted-hot machines (see
  :func:`repro.core.placement.steered_placement` — steering only
  *reorders* candidates, it never excludes the only feasible ones).
* **Conflict probability.** Commit outcomes feed a pair of decayed
  attempt/conflict accumulators whose ratio estimates the scheduler's
  near-term conflict probability; the ``predictive`` retry policy
  (:class:`repro.faults.retry.StarvationEscalationPolicy`) escalates a
  gang-scheduled job to incremental commits when that estimate crosses
  a configurable threshold — *before* the job has personally starved.

Determinism and crash semantics:

* All state advances only on simulated-time observations — the
  predictor draws no randomness and never reads the wall clock, so a
  predictor-on run is as gate-deterministic as a predictor-off one.
* The predictor is plain picklable data (dicts and floats): sweep
  configs carry only :class:`PredictorConfig` primitives and each
  ``--jobs N`` worker rebuilds identical predictor state from its own
  run's events.
* **A scheduler crash resets its predictor** (see
  :meth:`~repro.core.scheduler.OmegaScheduler.crash`): the contention
  model is in-memory process state, and loses exactly what the
  in-flight transaction loses. Chaos-injected *machine* failures drop
  the failed machine's score — a machine that just lost all its tasks
  is not where contention lives (tested in
  ``tests/faults/test_predictor.py``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PredictorConfig:
    """Picklable recipe for a :class:`ConflictPredictor`.

    Frozen and primitive-only, like :class:`~repro.faults.chaos.
    FaultConfig`, so sweep points cross ``--jobs N`` process boundaries
    unchanged.
    """

    #: Exponential-decay half-life of per-machine contention scores and
    #: of the attempt/conflict accumulators, in simulated seconds.
    halflife: float = 60.0
    #: How many predicted-hot machines placement steers away from.
    top_k: int = 8
    #: Minimum decayed score (in rejected tasks) for a machine to count
    #: as hot. Below it, one stale conflict is noise, not contention.
    hot_threshold: float = 1.0
    #: Predicted conflict probability at which the ``predictive`` retry
    #: policy escalates a gang job to incremental commits.
    escalate_probability: float = 0.25
    #: Minimum decayed attempt mass before the probability estimate is
    #: trusted (otherwise :meth:`ConflictPredictor.conflict_probability`
    #: reports 0.0 — never escalate on a cold model).
    min_attempts: float = 3.0

    def __post_init__(self) -> None:
        if self.halflife <= 0:
            raise ValueError(f"halflife must be positive, got {self.halflife}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.hot_threshold <= 0:
            raise ValueError(
                f"hot_threshold must be positive, got {self.hot_threshold}"
            )
        if not 0.0 < self.escalate_probability <= 1.0:
            raise ValueError(
                "escalate_probability must be in (0, 1], got "
                f"{self.escalate_probability}"
            )
        if self.min_attempts < 0:
            raise ValueError(
                f"min_attempts must be >= 0, got {self.min_attempts}"
            )


class ConflictPredictor:
    """Per-scheduler contention model over decayed conflict history.

    Scores decay lazily: each machine stores ``(score, stamp)`` and is
    re-based to the current simulated time only when it is observed or
    read, so idle machines cost nothing. The attempt/conflict
    accumulators decay with the same half-life; because both shrink by
    the same factor, their ratio — the conflict-probability estimate —
    is invariant under pure passage of time, which keeps
    :meth:`conflict_probability` a cheap O(1) read.
    """

    def __init__(self, config: PredictorConfig) -> None:
        self.config = config
        #: machine -> (decayed score, simulated time of last re-base).
        self._scores: dict[int, tuple[float, float]] = {}
        self._attempts = 0.0
        self._conflicts = 0.0
        self._stamp = 0.0
        #: Lifetime observation counters (survive decay, reset on crash).
        self.conflicts_observed = 0
        self.commits_observed = 0

    # ------------------------------------------------------------------
    # Decay arithmetic
    # ------------------------------------------------------------------
    def _decay_factor(self, elapsed: float) -> float:
        if elapsed <= 0.0:
            return 1.0
        return 0.5 ** (elapsed / self.config.halflife)

    def score(self, machine: int, now: float) -> float:
        """The machine's contention score decayed to ``now`` (pure read)."""
        entry = self._scores.get(int(machine))
        if entry is None:
            return 0.0
        value, stamp = entry
        return value * self._decay_factor(now - stamp)

    # ------------------------------------------------------------------
    # Feeding (called by the scheduler around transaction.commit)
    # ------------------------------------------------------------------
    def observe_conflict(
        self, machine: int, tasks: int, cause: str, now: float
    ) -> None:
        """One fine-grained conflict: ``tasks`` rejected on ``machine``.

        ``cause`` mirrors the ``txn.conflict`` trace vocabulary
        (``stale_sequence`` / ``partial_capacity`` / ``capacity``);
        stale-sequence rejections are contention by definition, capacity
        rejections are contention *evidence* (someone claimed the room
        first), so every cause feeds the same score.
        """
        del cause  # all causes weigh alike; kept for future shaping
        machine = int(machine)
        weight = float(max(1, tasks))
        self._scores[machine] = (self.score(machine, now) + weight, now)
        self.conflicts_observed += 1

    def observe_commit(self, conflicted: bool, now: float) -> None:
        """One commit outcome for the probability estimate."""
        factor = self._decay_factor(now - self._stamp)
        self._attempts = self._attempts * factor + 1.0
        self._conflicts = self._conflicts * factor + (1.0 if conflicted else 0.0)
        self._stamp = now
        self.commits_observed += 1

    # ------------------------------------------------------------------
    # Views (consulted by placement, the retry policy and telemetry)
    # ------------------------------------------------------------------
    def hot_machines(self, now: float) -> tuple[int, ...]:
        """Top-K predicted-hot machines, hottest first.

        A pure read (telemetry samplers call it too, and sampling must
        never perturb scheduling decisions). Deterministic order:
        descending decayed score, machine id as the tie-break. The score
        table is bounded by the number of machines, so nothing is ever
        pruned — an idle entry just decays toward zero.
        """
        config = self.config
        if not self._scores:
            return ()
        hot: list[tuple[float, int]] = []
        for machine, (value, stamp) in sorted(self._scores.items()):
            decayed = value * self._decay_factor(now - stamp)
            if decayed >= config.hot_threshold:
                hot.append((-decayed, machine))
        hot.sort()
        return tuple(machine for _, machine in hot[: config.top_k])

    def conflict_probability(self) -> float:
        """Estimated probability that the next commit conflicts.

        The ratio of the decayed conflict and attempt masses as of the
        last observation (both decay identically, so the ratio needs no
        re-basing). Reports 0.0 until ``min_attempts`` of decayed
        attempt mass has accumulated.
        """
        if self._attempts < max(self.config.min_attempts, 1e-12):
            return 0.0
        return min(1.0, self._conflicts / self._attempts)

    @property
    def tracked_machines(self) -> int:
        """Machines currently carrying a (possibly decayed) score."""
        return len(self._scores)

    # ------------------------------------------------------------------
    # Fault hooks (chaos engine and scheduler crash path)
    # ------------------------------------------------------------------
    def note_machine_failed(self, machine: int) -> None:
        """A chaos-injected machine failure: drop its contention score.

        The machine just lost every running task; whatever contention it
        carried is gone with them, and steering away from a newly-empty
        machine would be exactly backwards.
        """
        self._scores.pop(int(machine), None)

    def reset(self) -> None:
        """Scheduler crash semantics: the in-memory model is lost.

        Everything — scores, probability accumulators, lifetime counters
        — returns to the just-built state, mirroring the loss of the
        in-flight transaction. The restarted scheduler re-learns from
        the conflicts it sees after restart.
        """
        self._scores.clear()
        self._attempts = 0.0
        self._conflicts = 0.0
        self._stamp = 0.0
        self.conflicts_observed = 0
        self.commits_observed = 0

    # ------------------------------------------------------------------
    def state(self) -> dict:
        """A comparable snapshot of all predictor state (tests, gauges)."""
        return {
            "scores": dict(self._scores),
            "attempts": self._attempts,
            "conflicts": self._conflicts,
            "stamp": self._stamp,
            "conflicts_observed": self.conflicts_observed,
            "commits_observed": self.commits_observed,
        }
