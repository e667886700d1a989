"""Tests for the discrete-event simulator core."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Simulator
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


class Scenario:
    """One simulator driven by setup operations; every callback writes
    to ``log``. A sorted run is queued with one ``at_sorted`` call
    (``bulk``) or with one ``at`` per entry, the order it must match."""

    def __init__(self, bulk: bool) -> None:
        self.sim = Simulator()
        self.bulk = bulk
        self.log: list = []
        self.handles: list = []
        self.runs = 0

    def note(self, tag) -> None:
        self.log.append((tag, self.sim.now))

    def heap_event(self, time: float, kids=()) -> None:
        """An event at ``time`` that logs the clock, then per kid
        schedules a note at now (``("now",)``) or at a time not before
        now (``("at", t)``), or cancels a setup event (``("cancel", i)``)."""
        tag = len(self.handles)

        def fire() -> None:
            self.note(tag)
            for n, kid in enumerate(kids):
                if kid[0] == "now":
                    self.sim.at(self.sim.now, self.note, (tag, n))
                elif kid[0] == "at" and kid[1] >= self.sim.now:
                    self.sim.at(kid[1], self.note, (tag, n))
                elif kid[0] == "cancel":
                    self.cancel(kid[1])

        self.handles.append(self.sim.at(time, fire))

    def sorted_run(self, times: list[float]) -> None:
        run = self.runs
        self.runs += 1
        if self.bulk:
            self.sim.at_sorted(
                list(times),
                lambda start, stop: self.log.extend(
                    ("run", run, k) for k in range(start, stop)
                ),
            )
        else:
            for k, time in enumerate(times):
                self.sim.at(time, self.log.append, ("run", run, k))

    def cancel(self, index: int) -> None:
        if self.handles:
            self.sim.cancel(self.handles[index % len(self.handles)])

    def queue(self, setup) -> "Scenario":
        for op, *args in setup:
            getattr(self, op)(*args)
        return self

    def drive(self, setup, cuts=()) -> list:
        """Apply ``setup``, run to each cut and then to the end; after
        each slice, what a caller can see."""
        self.queue(setup)
        seen = [(self.sim.pending(), self.sim.peak_queue_depth)]
        for cut in [*cuts, None]:
            self.sim.run(until=cut)
            seen.append(
                (len(self.log), self.sim.now, self.sim.pending(), self.sim.peak_queue_depth)
            )
        return [self.log, seen]


def both_ways(setup, cuts=()):
    """``Scenario.drive`` with runs queued both ways: (bulk, one by one)."""
    return Scenario(True).drive(setup, cuts), Scenario(False).drive(setup, cuts)


class TestAtSorted:
    TIMES = [1.0, 1.0, 3.0, 5.0, 5.0, 9.0]
    BEFORE = [
        ("heap_event", 3.0),
        ("cancel", 0),
        ("heap_event", 5.0),
        ("heap_event", 1.0),
        ("cancel", 2),
    ]

    def test_same_queue_as_one_at_per_entry(self):
        setup = [*self.BEFORE, ("sorted_run", self.TIMES), ("heap_event", 5.0)]
        bulk, one_by_one = both_ways(setup, cuts=[4.0])
        assert bulk == one_by_one
        assert bulk[1][0] == (8, 8)  # every entry pending, and in the peak
        assert [entry for entry in bulk[0] if entry[0] != "run"] == [(1, 5.0), (3, 5.0)]

    def test_runs_merge_with_ties_between_them(self):
        setup = [
            ("sorted_run", [2.0, 2.0, 4.0]),
            ("heap_event", 2.0),
            ("sorted_run", [0.0, 2.0, 2.0, 4.0]),
            ("sorted_run", [4.0]),
        ]
        bulk, one_by_one = both_ways(setup)
        assert bulk == one_by_one
        assert bulk[0] == [
            ("run", 1, 0),
            ("run", 0, 0),
            ("run", 0, 1),
            (0, 2.0),
            ("run", 1, 1),
            ("run", 1, 2),
            ("run", 0, 2),
            ("run", 1, 3),
            ("run", 2, 0),
        ]
        # One dispatch per stretch of one run between the others' entries.
        scenario = Scenario(True)
        scenario.drive(setup)
        assert scenario.sim.events_processed == 7

    def test_step_runs_one_dispatch(self):
        scenario = Scenario(True).queue([("sorted_run", [1.0, 2.0, 3.0]), ("heap_event", 2.5)])
        sim = scenario.sim
        assert sim.step() and sim.events_processed == 1
        assert scenario.log == [("run", 0, 0), ("run", 0, 1)]
        assert sim.now == 2.0 and sim.pending() == 2
        assert sim.step() and scenario.log[-1] == (0, 2.5)
        assert sim.step() and sim.events_processed == 3 and sim.now == 3.0
        assert not sim.step() and sim.pending() == 0

    @pytest.mark.parametrize(
        "times, error",
        [
            ([4.0, float("nan"), 5.0], ValueError),
            ([float("nan")], ValueError),
            ([1.0, 5.0], SimulationError),  # t=1 is before now
            ([4.0, 6.0, 5.0], ValueError),
        ],
        ids=["nan", "nan-only", "past", "unsorted"],
    )
    def test_refused_before_anything_is_queued(self, times, error):
        scenario = Scenario(True).queue([("heap_event", 2.0), ("heap_event", 7.0)])
        scenario.sim.run(until=3.0)
        with pytest.raises(error):
            scenario.sim.at_sorted(times, scenario.log.append)
        assert scenario.sim.pending() == 1 and scenario.sim.peak_queue_depth == 2
        scenario.sim.run()
        assert scenario.log == [(0, 2.0), (1, 7.0)]


#: Times drawn from a few values, so that entries tie often.
_TIME = st.sampled_from([0.0, 1.0, 2.5, 4.0, 6.0])
_KID = st.one_of(
    st.just(("now",)),
    st.tuples(st.just("at"), _TIME),
    st.tuples(st.just("cancel"), st.integers(0, 9)),
)
_HEAP_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("heap_event"), _TIME, st.lists(_KID, max_size=3)),
        st.tuples(st.just("cancel"), st.integers(0, 9)),
    ),
    max_size=10,
)
_RUN = st.tuples(st.just("sorted_run"), st.lists(_TIME, min_size=1, max_size=8).map(sorted))


@st.composite
def _setups(draw):
    """Two or more sorted runs, with heap events and cancellations
    queued before, between and after them."""
    setup = draw(_HEAP_OPS)
    for run in draw(st.lists(_RUN, min_size=2, max_size=4)):
        setup.insert(draw(st.integers(0, len(setup))), run)
    return setup


class TestAtSortedMatchesOneAtPerEntry:
    @settings(max_examples=300, deadline=None)
    @given(setup=_setups(), cuts=st.lists(_TIME, max_size=3).map(sorted))
    def test_same_order_clock_pending_and_peak(self, setup, cuts):
        bulk, one_by_one = both_ways(setup, cuts)
        assert bulk == one_by_one


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
