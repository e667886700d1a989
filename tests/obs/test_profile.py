"""Callback profiler attribution and reporting."""

from __future__ import annotations

import pytest

from repro.obs.profile import CallbackProfiler, callback_name
from repro.sim import Simulator


def _work() -> None:
    pass


class _Target:
    def tick(self) -> None:
        pass


def test_callback_name_includes_module_and_qualname():
    assert callback_name(_work) == f"{__name__}._work"
    assert callback_name(_Target().tick).endswith("_Target.tick")


def test_record_accumulates_per_target():
    profiler = CallbackProfiler()
    profiler.record(_work, 0.010)
    profiler.record(_work, 0.030)
    profiler.record(_Target().tick, 0.005)
    assert profiler.total_calls == 3
    assert profiler.total_seconds == pytest.approx(0.045)
    top = profiler.top(n=2)
    assert top[0]["callback"] == callback_name(_work)
    assert top[0]["calls"] == 2
    assert top[0]["total_s"] == pytest.approx(0.040)
    assert top[0]["mean_us"] == pytest.approx(20000.0)
    assert top[0]["max_us"] == pytest.approx(30000.0)


def test_top_ranks_by_total_time_and_truncates():
    profiler = CallbackProfiler()
    profiler.record(_work, 0.001)
    profiler.record(_Target().tick, 0.1)
    top = profiler.top(n=1)
    assert len(top) == 1
    assert top[0]["callback"].endswith("_Target.tick")
    with pytest.raises(ValueError):
        profiler.top(n=0)


def test_report_renders_table_or_placeholder():
    profiler = CallbackProfiler()
    assert profiler.report() == "(no callbacks profiled)"
    profiler.record(_work, 0.002)
    report = profiler.report(n=5)
    assert "callback" in report
    assert f"{__name__}._work" in report


def test_simulator_dispatch_feeds_profiler():
    sim = Simulator()
    profiler = CallbackProfiler()
    sim.profiler = profiler
    hits: list[float] = []
    sim.at(1.0, hits.append, 1.0)
    sim.at(2.0, hits.append, 2.0)
    sim.run(until=10.0)
    assert hits == [1.0, 2.0]
    assert profiler.total_calls == 2
    (row,) = profiler.top(n=1)
    assert row["calls"] == 2
