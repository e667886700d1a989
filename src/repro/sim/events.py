"""Event and event-queue primitives for the discrete-event engine.

Events are ordered by ``(time, sequence)``: two events scheduled for the
same instant fire in the order they were scheduled, which makes simulation
runs fully deterministic for a given seed.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Any, Callable


class Event(list):
    """A scheduled callback: the heap entry ``[time, seq, state, fn, *args]``.

    The entry is a list so that the heap orders entries by C sequence
    comparison; ``seq`` is unique, so no comparison reads past it.
    ``state`` is None while the event is queued and live, then
    ``"cancelled"`` or ``"fired"``.

    Instances are handles: they are returned by :meth:`EventQueue.push`
    and can be passed to :meth:`EventQueue.cancel`. A cancelled event is
    skipped when its time comes (lazy deletion keeps the heap cheap).
    """

    __slots__ = ()
    #: Handles hash by identity, as plain objects do (lists do not hash).
    __hash__ = object.__hash__

    time = property(itemgetter(0))
    seq = property(itemgetter(1))
    fn = property(itemgetter(3))

    @staticmethod
    def unqueued(time: float, fn: Callable[..., Any], *args: Any) -> "Event":
        """``fn(*args)`` at ``time``, for :meth:`EventQueue.push_all`,
        which gives it its ``seq``."""
        return Event((time, 0, None, fn, *args))

    @property
    def args(self) -> tuple:
        return tuple(self[4:])

    @property
    def cancelled(self) -> bool:
        return self[2] == "cancelled"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f" {self[2]}" if self[2] else ""
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} seq={self.seq} fn={name}{state}>"


class EventQueue:
    """A priority queue of :class:`Event` objects with stable ordering."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._live = 0
        #: The most live events ever queued at once.
        self.peak = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at ``time`` and return a cancellable handle."""
        if time != time:  # NaN guard: NaN times would corrupt heap ordering
            raise ValueError("event time must not be NaN")
        event = Event((time, next(self._counter), None, fn, *args))
        heappush(self._heap, event)
        self._live = live = self._live + 1
        if live > self.peak:
            self.peak = live
        return event

    def push_all(self, entries: list[Event]) -> None:
        """Queue events made by :meth:`Event.unqueued`.

        Each entry gets its ``seq`` in list order, exactly as one
        :meth:`push` per entry would give it, and the heap is restored
        with one ``heapify``: ``(time, seq)`` is unique, so the pop order
        is the one the pushes would make. A NaN time is refused before
        any entry is queued.
        """
        for entry in entries:
            if entry[0] != entry[0]:
                raise ValueError("event time must not be NaN")
        for entry, seq in zip(entries, self._counter):
            entry[1] = seq
        heap = self._heap
        heap.extend(entries)
        heapify(heap)
        self._live = live = self._live + len(entries)
        if live > self.peak:
            self.peak = live

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event. Cancelling an event twice, or one
        that has already fired, is a no-op."""
        if event[2] is None:
            event[2] = "cancelled"
            self._live -= 1

    def pop(self, until: float | None = None) -> Event | None:
        """Remove and return the next live event, or None if there is
        none — or, with ``until``, none at or before that time."""
        heap = self._heap
        while heap:
            event = heap[0]
            if event[2] is None:
                if until is not None and event[0] > until:
                    return None
                heappop(heap)
                event[2] = "fired"
                self._live -= 1
                return event
            heappop(heap)  # cancelled: dropped when it surfaces
        return None
