"""Tests for the event queue: ordering, cancellation, determinism."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Simulator
from repro.sim.events import Event, EventQueue


class TestEventOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(3.0, fired.append, "c")
        queue.push(1.0, fired.append, "a")
        queue.push(2.0, fired.append, "b")
        while (event := queue.pop()) is not None:
            event.fn(*event.args)
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_push_order(self):
        queue = EventQueue()
        order = []
        for tag in range(10):
            queue.push(5.0, order.append, tag)
        while (event := queue.pop()) is not None:
            event.fn(*event.args)
        assert order == list(range(10))

    def test_pop_returns_earliest_and_keeps_the_rest(self):
        queue = EventQueue()
        queue.push(7.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.pop().time == 2.0
        assert len(queue) == 1

    def test_new_queue_is_empty(self):
        assert len(EventQueue()) == 0

    def test_pop_empty_queue(self):
        assert EventQueue().pop() is None

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_pop_order_is_sorted_for_any_times(self, times):
        queue = EventQueue()
        for time in times:
            queue.push(time, lambda: None)
        popped = []
        while (event := queue.pop()) is not None:
            popped.append(event.time)
        assert popped == sorted(times)


class TestCancellation:
    def test_cancelled_event_not_popped(self):
        queue = EventQueue()
        keep = queue.push(1.0, lambda: "keep")
        drop = queue.push(0.5, lambda: "drop")
        queue.cancel(drop)
        event = queue.pop()
        assert event is keep
        assert queue.pop() is None

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.cancel(event)
        queue.cancel(event)
        assert len(queue) == 0

    def test_len_tracks_live_events(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(5)]
        assert len(queue) == 5
        queue.cancel(events[2])
        assert len(queue) == 4
        queue.pop()
        assert len(queue) == 3

    def test_bool_reflects_liveness(self):
        queue = EventQueue()
        assert not queue
        event = queue.push(1.0, lambda: None)
        assert queue
        queue.cancel(event)
        assert not queue

    def test_peek_skips_cancelled_head(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(first)
        assert len(queue) == 1
        assert queue.pop().time == 2.0

    def test_cancel_after_fire_is_a_noop(self):
        # Regression: cancelling a fired handle used to decrement the
        # live count, so pending() went negative and len() raised.
        sim = Simulator()
        fired = sim.at(1.0, lambda: None)
        sim.at(5.0, lambda: None)
        sim.run(until=2.0)
        sim.cancel(fired)
        sim.cancel(fired)
        assert sim.pending() == 1
        assert not fired.cancelled
        sim.run()
        assert sim.pending() == 0 and sim.events_processed == 2


class TestEventValidation:
    def test_nan_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError, match="NaN"):
            queue.push(float("nan"), lambda: None)

    def test_event_repr_mentions_state(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        assert "t=1.0" in repr(event)
        queue.cancel(event)
        assert event.cancelled and "cancelled" in repr(event)
        fired = queue.push(2.0, lambda: None)
        assert queue.pop() is fired and "fired" in repr(fired)


#: ("push", time) | ("cancel", index into every handle pushed so far) | ("pop",)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.sampled_from([0.0, 1.0, 1.5, 2.0, 7.0])),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("pop")),
    ),
    max_size=80,
)


class TestEventQueueModel:
    """The queue against the obvious model: a list of live
    ``(time, push number)`` pairs, sorted on demand."""

    @given(_OPS)
    def test_interleavings_match_a_sorted_list(self, ops):
        queue = EventQueue()
        handles: list[Event] = []
        live: list[tuple[float, int]] = []
        for op, *arg in ops:
            if op == "push":
                live.append((arg[0], len(handles)))
                handles.append(queue.push(arg[0], len, len(handles)))
            elif op == "cancel" and handles:
                number = arg[0] % len(handles)
                queue.cancel(handles[number])  # live, cancelled or fired
                live = [entry for entry in live if entry[1] != number]
            elif op == "pop":
                event = queue.pop()
                if not live:
                    assert event is None
                else:
                    live.sort()  # time, then push order: FIFO on ties
                    time, number = live.pop(0)
                    assert event is handles[number]
                    assert (event.time, event.args) == (time, (number,))
            assert len(queue) == len(live) and bool(queue) == bool(live)

    @given(
        st.lists(st.sampled_from([1.0, 2.0, 3.0, 4.0]), max_size=8),
        st.sets(st.integers(min_value=0, max_value=7)),
        st.sampled_from([0.5, 2.0, 2.5, 4.0, 9.0]),
    )
    def test_run_until_parks_the_clock_only_before_a_live_event(
        self, times, cancelled, until
    ):
        sim = Simulator()
        fired = []
        handles = [sim.at(time, fired.append, time) for time in times]
        for number in cancelled:
            if number < len(handles):
                sim.cancel(handles[number])
        live = [t for i, t in enumerate(times) if i not in cancelled]
        sim.run(until=until)
        due = sorted(t for t in live if t <= until)
        assert fired == due
        if any(t > until for t in live):
            assert sim.now == until
        else:
            assert sim.now == (due[-1] if due else 0.0)
        assert sim.pending() == len(live) - len(due)
