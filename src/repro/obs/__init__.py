"""Observability: structured tracing, metrics, and profiling.

The paper's evaluation hinges on *per-decision* quantities — which
commit conflicted, where a scheduler's busy time went, how many times a
job retried — that end-of-run aggregates cannot explain. This package
provides the three layers that make those visible:

* :mod:`repro.obs.recorder` — a process-global trace recorder emitting
  structured span/event records (simulated time *and* wall time,
  scheduler id, job id, attempt number). The default recorder is a
  no-op whose cost on instrumented hot paths is one attribute check.
* :mod:`repro.obs.histogram` — fixed-bucket histograms with
  percentile estimation, serialized into each run's ``run.metrics``
  record.
* :mod:`repro.obs.profile` — per-callback wall-clock attribution for
  the event loop ("top-N hottest callbacks").

Traces export to JSONL (:mod:`repro.obs.export`) and summarize into
conflict timelines, retry chains, and busy-time breakdowns
(:mod:`repro.obs.summary`, surfaced as ``omega-sim trace``). On top of
the raw records sit the time-resolved consumers: the config-gated
:mod:`repro.obs.timeline` sampler records ``timeline.*`` telemetry
series on the simulated clock, :mod:`repro.obs.perfetto` converts any
trace to Chrome/Perfetto trace-event JSON (``omega-sim perfetto``), and
:mod:`repro.obs.report` renders self-contained HTML reports with inline
SVG charts (``omega-sim report``).

Enable tracing around any run::

    from repro import obs

    recorder = obs.TraceRecorder(path="run.jsonl", keep_records=False)
    obs.set_recorder(recorder)
    try:
        ...  # run any simulation
    finally:
        obs.reset_recorder()
        recorder.close()

See ``docs/OBSERVABILITY.md`` for the record schema and a walkthrough.
"""

from repro.obs.export import JsonlWriter, read_jsonl, write_jsonl
from repro.obs.perfetto import export_perfetto
from repro.obs.profile import CallbackProfiler, callback_name
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Span,
    TraceRecorder,
    get_recorder,
    reset_recorder,
    set_recorder,
)
from repro.obs.histogram import DEFAULT_BUCKETS, Histogram
from repro.obs.report import generate_report, write_report
from repro.obs.summary import TraceSummary, json_safe, summarize_file
from repro.obs.timeline import TimelineSampler

__all__ = [
    # recorder
    "NULL_RECORDER",
    "NullRecorder",
    "TraceRecorder",
    "Span",
    "get_recorder",
    "set_recorder",
    "reset_recorder",
    # histograms
    "DEFAULT_BUCKETS",
    "Histogram",
    # profiling
    "CallbackProfiler",
    "callback_name",
    # export + summary
    "JsonlWriter",
    "read_jsonl",
    "write_jsonl",
    "TraceSummary",
    "json_safe",
    "summarize_file",
    # time-resolved consumers
    "TimelineSampler",
    "export_perfetto",
    "generate_report",
    "write_report",
]
