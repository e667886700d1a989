"""Shared benchmark configuration.

Each benchmark regenerates one table or figure of the paper at a
reduced scale (the suite targets a single CPU), prints the rows the
paper plots, asserts the paper's qualitative shape, and reports key
numbers through ``benchmark.extra_info``.

Environment knobs:

* ``OMEGA_BENCH_SCALE`` — cell scale factor override (default per-bench,
  typically 0.1-0.3; use 1.0 for paper-size cells),
* ``OMEGA_BENCH_HOURS`` — simulated horizon override in hours.
"""

from __future__ import annotations

import os

import pytest

from repro.metrics.ascii_chart import format_table
from repro.experiments.registry import EXPERIMENTS, run


def bench_scale(default: float) -> float:
    return float(os.environ.get("OMEGA_BENCH_SCALE", default))


def bench_hours(default: float) -> float:
    return float(os.environ.get("OMEGA_BENCH_HOURS", default))


def bench_horizon(default_hours: float) -> float:
    return bench_hours(default_hours) * 3600.0


def figure(name: str, **params) -> list[dict]:
    """The rows of registered experiment ``name`` — what ``omega-sim
    NAME`` prints — with ``params`` passed to its grid builder."""
    return run(EXPERIMENTS[name], params)


@pytest.fixture
def report(benchmark):
    """Returns a helper that runs a driver once under the benchmark
    timer, prints its rows, and stashes extras."""

    def _run(fn, title: str, columns: list[str] | None = None, **extra_info):
        rows = benchmark.pedantic(fn, rounds=1, iterations=1)
        print(f"\n=== {title} ===")
        print(format_table(rows, columns=columns))
        for key, value in extra_info.items():
            benchmark.extra_info[key] = value
        return rows

    return _run
