"""The discrete-event simulator core.

A :class:`Simulator` owns the virtual clock and the event queue. All
schedulers, workload generators and metric samplers in this repository
are driven by callbacks scheduled here; nothing advances time except the
event loop, so runs are reproducible and independent of wall-clock speed
(which is what lets a "24h" experiment finish in minutes, per Table 2 of
the paper).
"""

from __future__ import annotations

import time as _time
from typing import Any, Callable

from repro.obs.recorder import NULL_RECORDER
from repro.sim.events import Event, EventQueue


class SimulationError(RuntimeError):
    """Raised on misuse of the simulator (e.g. scheduling into the past)."""


class Simulator:
    """Single-threaded deterministic discrete-event simulator."""

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self.events_processed = 0
        #: Optional profiler with a ``record(fn, seconds)`` method: the
        #: repo benchmark's span tracer (``bench/spans.py`` ``Tracer``,
        #: attached by ``bench/child.py`` under ``--trace 1``). When
        #: None — the default — dispatch pays only this None check.
        self.profiler: Any | None = None
        #: The run's trace recorder, set by its :class:`repro.world.RunContext`;
        #: components emit through it behind one ``enabled`` check.
        self.recorder: Any = NULL_RECORDER
        #: Wall-clock seconds spent inside :meth:`run` so far.
        self.wall_seconds = 0.0

    # ------------------------------------------------------------------
    # Scheduling API
    # ------------------------------------------------------------------
    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        return self._queue.push(time, fn, *args)

    def at_sorted(self, times: list[float], fn: Callable[[int, int], Any]) -> None:
        """Schedule a run of entries at the absolute, non-decreasing
        ``times``, in the order one :meth:`at` per entry would fire them.

        The loop applies the run in slices, one dispatch each: it calls
        ``fn(start, stop)`` for entries ``start`` to ``stop - 1``, the
        longest stretch due before any other queued event; ``fn``
        applies them in order (the initial fill frees a slice in one
        walk). The clock reads the last one's time throughout, so ``fn``
        must neither read it nor schedule events. Every entry counts in
        :meth:`pending` and :attr:`peak_queue_depth` until its slice
        runs. A time before now, a NaN or a decrease is refused before
        anything is queued (see :meth:`EventQueue.push_sorted`).
        """
        if times and times[0] < self.now:
            raise SimulationError(
                f"cannot schedule event at t={times[0]} before now={self.now}"
            )
        self._queue.push_sorted(times, fn)

    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self._queue.push(self.now + delay, fn, *args)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        self._queue.cancel(event)

    def every(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        until: float | None = None,
    ) -> None:
        """Schedule ``fn(*args)`` every ``interval`` seconds, starting one
        interval from now, optionally stopping at ``until``."""
        if interval <= 0:
            raise SimulationError(f"interval must be positive: {interval}")

        def tick() -> None:
            fn(*args)
            next_time = self.now + interval
            if until is None or next_time <= until:
                self.at(next_time, tick)

        first = self.now + interval
        if until is None or first <= until:
            self.at(first, tick)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    @property
    def peak_queue_depth(self) -> int:
        """High-water mark of :meth:`pending`."""
        return self._queue.peak

    def step(self) -> bool:
        """Run the next event. Returns False if the queue was empty."""
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed > before

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events in order until the queue empties, the clock passes
        ``until``, or ``max_events`` events have been processed.

        Events scheduled exactly at ``until`` still run; the clock never
        advances past ``until``. An ``until`` before ``now`` is rejected
        as :meth:`at` rejects a past time: the clock never moves backwards.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until t={until} before now={self.now}"
            )
        self._running = True
        processed = 0
        wall_start = _time.perf_counter()
        try:
            pop = self._queue.pop
            while max_events is None or processed < max_events:
                event = pop(until)
                if event is None:
                    if until is not None and self._queue:
                        self.now = until  # live events remain, all later
                    break
                # The entry's layout is Event's: [time, seq, state, fn, *args]
                # (a sorted run's slice too: fn(start, stop)).
                self.now = event[0]
                self.events_processed += 1
                processed += 1
                fn = event[3]
                profiler = self.profiler
                if profiler is None:
                    fn(*event[4:])
                else:
                    start = _time.perf_counter()
                    try:
                        fn(*event[4:])
                    finally:
                        profiler.record(fn, _time.perf_counter() - start)
        finally:
            self._running = False
            self.wall_seconds += _time.perf_counter() - wall_start

    def stats(self) -> dict[str, float | int]:
        """Snapshot of the engine's own runtime statistics."""
        return {
            "events_processed": self.events_processed,
            "pending_events": self.pending(),
            "peak_queue_depth": self.peak_queue_depth,
            "wall_seconds": self.wall_seconds,
            "sim_now": self.now,
        }
