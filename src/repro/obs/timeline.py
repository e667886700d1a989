"""Deterministic simulated-time telemetry sampling (``timeline.*``).

The paper's core evidence is *time-resolved*: Figures 5-8 plot
scheduler busyness, conflict fraction and wait time over simulated
days, not end-of-run aggregates. :class:`TimelineSampler` hooks the
discrete-event engine's own scheduler (:meth:`Simulator.every`) to
record those series as first-class trace records:

``timeline.cell``
    One per sample: cell CPU/memory utilization, total pending-queue
    depth, machines currently failed, schedulers currently crashed.
``timeline.sched``
    One per scheduler per sample: queue depth, busy fraction over the
    sampling window, cumulative and per-window conflict/abandonment
    rates, jobs scheduled.

Because sampling rides the event loop, the records are a deterministic
function of the master seed — the determinism gates compare them like
any other record, checkpoint/resume stitching covers them for free, and
wall-clock time never appears (the ``wall_clock`` check holds). Sampling
is opt-in per run (``LightweightConfig.timeline_interval``, surfaced as
``omega-sim ... --timeline-interval SECONDS``); an enabled sampler adds
events to the loop, so it is part of the run's configuration rather
than a recorder side effect.

Consumers: ``omega-sim trace`` / ``trace --json`` summarize the series,
:mod:`repro.obs.perfetto` turns them into Perfetto counter tracks, and
``omega-sim report`` charts them (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cellstate import CellState
    from repro.faults.chaos import ChaosEngine
    from repro.metrics import MetricsCollector
    from repro.schedulers.base import QueueScheduler
    from repro.sim import Simulator

class TimelineSampler:
    """Samples cell- and scheduler-level telemetry on the event loop.

    All state reads are pure queries against objects the simulation
    already owns; installing a sampler never perturbs scheduling
    decisions (it does add its own tick events to the loop, which is
    why sampling is config-gated, not recorder-gated). ``schedulers``
    is read live, so one registered on the world after the sampler was
    installed (the MapReduce extension) is sampled from its first tick.
    """

    def __init__(
        self,
        sim: "Simulator",
        metrics: "MetricsCollector",
        states: Sequence["CellState"],
        schedulers: Sequence["QueueScheduler"],
        interval: float,
        horizon: float | None = None,
        chaos: "ChaosEngine | None" = None,
    ) -> None:
        if not 0 < interval < math.inf:
            raise ValueError(f"timeline interval must be positive and finite, got {interval}")
        self.sim = sim
        self.metrics = metrics
        self.states = list(states)
        self.schedulers = schedulers
        self.interval = float(interval)
        self.horizon = horizon
        self.chaos = chaos
        self.samples_taken = 0
        # Previous sample's cumulative counters, per scheduler, for the
        # sliding-window rates: (busy_seconds, conflicts, abandoned).
        self._previous: dict[str, tuple[float, int, int]] = {}

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Register the periodic sampling tick with the simulator."""
        self.sim.every(self.interval, self.sample, until=self.horizon)

    # ------------------------------------------------------------------
    def _utilization(self) -> tuple[float, float]:
        used_cpu = sum(state.used_cpu for state in self.states)
        total_cpu = sum(state.cell.total_cpu for state in self.states)
        used_mem = sum(state.used_mem for state in self.states)
        total_mem = sum(state.cell.total_mem for state in self.states)
        cpu = used_cpu / total_cpu if total_cpu > 0 else 0.0
        mem = used_mem / total_mem if total_mem > 0 else 0.0
        return cpu, mem

    def _cumulative_busy(self, scheduler: "QueueScheduler") -> float:
        """Busy seconds up to now: recorded intervals + in-flight credit.

        ``metrics.schedulers`` is a defaultdict — read with ``.get`` so
        sampling never materializes entries for schedulers that have not
        reported anything yet (that would perturb ``scheduler_names()``).
        """
        entry = self.metrics.schedulers.get(scheduler.name)
        busy = sum(entry.busy_time.values()) if entry is not None else 0.0
        since = scheduler.busy_since
        if since is not None:
            busy += self.sim.now - since
        return busy

    def sample(self) -> None:
        """Emit one ``timeline.cell`` + per-scheduler ``timeline.sched``."""
        rec = self.sim.recorder
        self.samples_taken += 1
        now = self.sim.now
        interval = self.interval
        emit = rec.enabled
        if emit:
            cpu_util, mem_util = self._utilization()
            chaos = self.chaos
            machines_down = chaos.machines_down if chaos is not None else 0
            scheds_down = sum(
                1 for scheduler in self.schedulers if scheduler.is_down
            )
            rec.event(
                "timeline.cell",
                t=now,
                cpu_util=cpu_util,
                mem_util=mem_util,
                pending=sum(s.queue_depth for s in self.schedulers),
                machines_down=machines_down,
                scheds_down=scheds_down,
                active_faults=machines_down + scheds_down,
            )
        for scheduler in self.schedulers:
            name = scheduler.name
            busy = self._cumulative_busy(scheduler)
            entry = self.metrics.schedulers.get(name)
            conflicts = sum(entry.conflicts.values()) if entry is not None else 0
            abandoned = entry.jobs_abandoned if entry is not None else 0
            scheduled = (
                sum(entry.jobs_scheduled.values()) if entry is not None else 0
            )
            prev_busy, prev_conflicts, prev_abandoned = self._previous.get(
                name, (0.0, 0, 0)
            )
            # Serial servers cannot exceed one busy-second per second;
            # the clamp only absorbs float rounding at window edges.
            busy_frac = min(1.0, max(0.0, (busy - prev_busy) / interval))
            self._previous[name] = (busy, conflicts, abandoned)
            if not emit:
                continue
            rec.event(
                "timeline.sched",
                t=now,
                sched=name,
                queue_depth=scheduler.queue_depth,
                busy_frac=busy_frac,
                down=scheduler.is_down,
                conflicts=conflicts,
                conflict_rate=(conflicts - prev_conflicts) / interval,
                scheduled=scheduled,
                abandoned=abandoned,
                abandon_rate=(abandoned - prev_abandoned) / interval,
            )
