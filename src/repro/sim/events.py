"""Event and event-queue primitives for the discrete-event engine.

Events are ordered by ``(time, sequence)``: two events scheduled for the
same instant fire in the order they were scheduled, which makes simulation
runs fully deterministic for a given seed.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from heapq import heappop, heappush, heapreplace
from math import isnan
from operator import itemgetter
from typing import Any, Callable, NamedTuple


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
    """A priority queue of :class:`Event` objects, and of sorted runs
    (:meth:`push_sorted`), with stable ordering."""

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

    def push_sorted(self, times: list[float], fire: Callable[[int, int], Any]) -> None:
        """Queue a sorted run: entry ``k`` is due at ``times[k]``.

        The entries take the seqs that one :meth:`push` per entry, in
        list order, would give them, and each counts in ``len`` and
        ``peak`` until it is drained, but the heap holds one cursor for
        the whole run. :meth:`pop` hands the run out in slices as the
        call ``fire(start, stop)``: entries ``start`` to ``stop - 1``,
        every one due before the next queued entry (and, with ``until``,
        not after it). A NaN or unsorted time is refused before anything
        is queued.
        """
        if any(map(isnan, times)):
            raise ValueError("event time must not be NaN")
        if sorted(times) != times:
            raise ValueError("a sorted run's times must not decrease")
        if not times:
            return
        base = next(self._counter)
        self._counter = itertools.count(base + len(times))
        # A cursor is [time, seq, run]: ordered as an Event, never handed out.
        heappush(self._heap, [times[0], base, _SortedRun(times, fire, base)])
        self._live = live = self._live + len(times)
        if live > self.peak:
            self.peak = live

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event. Cancelling an event twice, or one
        that has already fired, is a no-op."""
        if event[2] is None:
            event[2] = "cancelled"
            self._live -= 1

    def pop(self, until: float | None = None) -> Event | tuple | None:
        """Remove and return the next live event, or None if there is
        none — or, with ``until``, none at or before that time.

        A sorted run's next slice comes back as the tuple ``(time, seq,
        "fired", fire, start, stop)``, laid out as an :class:`Event`:
        ``time`` and ``seq`` are its last entry's.
        """
        heap = self._heap
        while heap:
            event = heap[0]
            state = event[2]
            if state is None:
                if until is not None and event[0] > until:
                    return None
                heappop(heap)
                event[2] = "fired"
                self._live -= 1
                return event
            if state.__class__ is _SortedRun:
                if until is not None and event[0] > until:
                    return None
                return self._slice(event, until)
            heappop(heap)  # cancelled: dropped when it surfaces
        return None

    def _slice(self, cursor: list, until: float | None) -> tuple:
        # The cursor is heap[0], so its entry comes before everything
        # else queued, and the next key is the smaller of the root's
        # children (a cancelled one only ends the slice early). The slice
        # runs on while its entries come first too: an entry tied in time
        # with that key goes first iff the run was queued first.
        heap = self._heap
        times, fire, base = cursor[2]
        start = cursor[1] - base
        first = heap[1] if len(heap) > 1 else None
        if len(heap) > 2 and heap[2] < first:
            first = heap[2]
        if first is not None and (until is None or first[0] <= until):
            bound = bisect_right if first[1] > base else bisect_left
            stop = bound(times, first[0], start + 1)
        elif until is not None:
            stop = bisect_right(times, until, start + 1)
        else:
            stop = len(times)
        if stop < len(times):
            cursor[0] = times[stop]
            cursor[1] = base + stop
            heapreplace(heap, cursor)  # sifts the re-keyed cursor down
        else:
            heappop(heap)
        self._live -= stop - start
        return (times[stop - 1], base + stop - 1, "fired", fire, start, stop)


class _SortedRun(NamedTuple):
    """The entries of one :meth:`EventQueue.push_sorted` call; entry
    ``k`` has seq ``base + k``."""

    times: list[float]
    fire: Callable[[int, int], Any]
    base: int
