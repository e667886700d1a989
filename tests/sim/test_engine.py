"""Tests for the discrete-event simulator core."""

import pytest

from repro.sim import Event, Simulator
from repro.sim.engine import SimulationError


class TestScheduling:
    def test_at_runs_callback_at_time(self, sim):
        seen = []
        sim.at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_after_is_relative_to_now(self, sim):
        seen = []
        sim.at(3.0, lambda: sim.after(2.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [5.0]

    def test_cannot_schedule_into_the_past(self, sim):
        sim.at(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="before now"):
            sim.at(5.0, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError, match="negative"):
            sim.after(-1.0, lambda: None)

    def test_cancel_prevents_execution(self, sim):
        seen = []
        event = sim.at(1.0, lambda: seen.append("x"))
        sim.cancel(event)
        sim.run()
        assert seen == []

    def test_events_pass_args(self, sim):
        seen = []
        sim.at(1.0, lambda a, b: seen.append((a, b)), 1, "two")
        sim.run()
        assert seen == [(1, "two")]


def _drained(sim):
    out = []
    while (event := sim._queue.pop()) is not None:
        out.append((event.time, event.seq, event.args))
    return out


class TestAtAll:
    TIMES = [5.0, 1.0, 5.0, 3.0, 1.0, 9.0]

    def _queued_before(self):
        sim = Simulator()
        sim.at(3.0, print, "before")
        sim.cancel(sim.at(1.0, print, "cancelled"))
        return sim

    def test_same_queue_as_one_at_per_entry(self):
        one_by_one, bulk = self._queued_before(), self._queued_before()
        for i, time in enumerate(self.TIMES):
            one_by_one.at(time, print, i)
        bulk.at_all([Event.unqueued(time, print, i) for i, time in enumerate(self.TIMES)])
        assert bulk.pending() == one_by_one.pending() == 7
        assert bulk.peak_queue_depth == one_by_one.peak_queue_depth
        assert _drained(bulk) == _drained(one_by_one)

    @pytest.mark.parametrize(
        "bad, error", [(-1.0, SimulationError), (float("nan"), ValueError)]
    )
    def test_refused_before_any_entry_is_queued(self, bad, error):
        sim = self._queued_before()
        with pytest.raises(error):
            sim.at_all([Event.unqueued(time, print) for time in (2.0, bad, 4.0)])
        assert sim.pending() == 1 and len(sim._queue._heap) == 2


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self, sim):
        fired = []
        sim.at(1.0, fired.append, "a")
        sim.at(10.0, fired.append, "b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 5.0
        assert sim.pending() == 1

    def test_event_exactly_at_until_runs(self, sim):
        fired = []
        sim.at(5.0, fired.append, "edge")
        sim.run(until=5.0)
        assert fired == ["edge"]

    def test_run_resumes_after_until(self, sim):
        fired = []
        sim.at(10.0, fired.append, "late")
        sim.run(until=5.0)
        sim.run()
        assert fired == ["late"]

    def test_run_until_before_now_is_rejected(self, sim):
        sim.at(10.0, lambda: None)
        sim.at(20.0, lambda: None)
        sim.run(until=15.0)
        with pytest.raises(SimulationError, match="before now"):
            sim.run(until=5.0)
        assert sim.now == 15.0
        with pytest.raises(SimulationError, match="before now"):
            sim.at(7.0, lambda: None)

    def test_max_events_limits_processing(self, sim):
        fired = []
        for i in range(10):
            sim.at(float(i), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_events_processed_counter(self, sim):
        for i in range(4):
            sim.at(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_simulator_not_reentrant(self, sim):
        def reenter():
            sim.run()

        sim.at(1.0, reenter)
        with pytest.raises(SimulationError, match="re-entrant"):
            sim.run()

    def test_time_never_goes_backwards(self, sim):
        observed = []
        for t in (3.0, 1.0, 2.0, 1.0):
            sim.at(t, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)


class TestEvery:
    def test_every_fires_periodically(self, sim):
        ticks = []
        sim.every(2.0, lambda: ticks.append(sim.now), until=10.0)
        sim.run()
        assert ticks == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_every_without_until_runs_with_horizon(self, sim):
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_every_rejects_nonpositive_interval(self, sim):
        with pytest.raises(SimulationError, match="positive"):
            sim.every(0.0, lambda: None)

    def test_start_time_offsets_clock(self):
        sim = Simulator(start_time=100.0)
        assert sim.now == 100.0
        seen = []
        sim.after(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [105.0]
