"""Failure-injection tests at the engine level: errors in handlers and
malformed inputs must surface loudly, not corrupt the simulation."""

import pytest



class TestHandlerFailures:
    def test_handler_exception_propagates(self, sim):
        def boom():
            raise RuntimeError("handler exploded")

        sim.at(1.0, boom)
        with pytest.raises(RuntimeError, match="handler exploded"):
            sim.run()

    def test_clock_set_before_failed_handler(self, sim):
        """The clock advances to the failing event's time, so post-mortem
        inspection sees when the failure happened."""
        sim.at(5.0, lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            sim.run()
        assert sim.now == 5.0

    def test_run_usable_after_handler_failure(self, sim):
        fired = []
        sim.at(1.0, lambda: 1 / 0)
        sim.at(2.0, fired.append, "later")
        with pytest.raises(ZeroDivisionError):
            sim.run()
        sim.run()  # the failed event was consumed; the rest proceeds
        assert fired == ["later"]

    def test_reentrancy_guard_resets_after_failure(self, sim):
        sim.at(1.0, lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            sim.run()
        # The _running flag must not be stuck.
        sim.at(2.0, lambda: None)
        sim.run()

    def test_nan_event_time_rejected_via_engine(self, sim):
        with pytest.raises(ValueError, match="NaN"):
            sim.at(float("nan"), lambda: None)


class TestSchedulerFacingFailures:
    def test_overcommit_error_is_loud(self):
        """A buggy direct mutation cannot silently corrupt cell state."""
        from repro.cluster import Cell
        from repro.core.cellstate import CellState, OvercommitError

        state = CellState(Cell.homogeneous(1, 4.0, 16.0))
        with pytest.raises(OvercommitError):
            state.claim(0, 5.0, 1.0)
        # State untouched by the failed claim.
        assert state.free_cpu[0] == 4.0
        assert state.used_cpu == 0.0

    def test_release_of_unclaimed_is_loud(self):
        from repro.cluster import Cell
        from repro.core.cellstate import CellState, OvercommitError

        state = CellState(Cell.homogeneous(1, 4.0, 16.0))
        with pytest.raises(OvercommitError):
            state.release(0, 1.0, 1.0)
