"""Observability: structured tracing, metrics, and profiling.

The paper's evaluation hinges on *per-decision* quantities — which
commit conflicted, where a scheduler's busy time went, how many times a
job retried — that end-of-run aggregates cannot explain.

This package exports only the trace recorder of
:mod:`repro.obs.recorder`: :class:`TraceRecorder`, :class:`NullRecorder`
and its instance ``NULL_RECORDER``, and ``set_recorder`` /
``get_recorder`` / ``reset_recorder``, which install the
process-global recorder every instrumented hot path reads. The default
recorder is a no-op whose cost on those paths is one attribute check.
Everything else is imported from the module that defines it, so a run
loads none of the consumers:

* :mod:`repro.obs.histogram` — fixed-bucket histograms with percentile
  estimation, serialized into each run's ``run.metrics`` record;
* :mod:`repro.obs.timeline` — the config-gated ``timeline.*`` sampler
  on the simulated clock;
* :mod:`repro.obs.profile` — per-callback wall-clock attribution for
  the event loop ("top-N hottest callbacks");
* :mod:`repro.obs.export` — JSONL writing and reading;
* :mod:`repro.obs.summary` — conflict timelines, retry chains and
  busy-time breakdowns (``omega-sim trace``);
* :mod:`repro.obs.perfetto` — Chrome/Perfetto trace-event JSON
  (``omega-sim perfetto``);
* :mod:`repro.obs.report` — self-contained HTML reports with inline SVG
  charts (``omega-sim report``).

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

from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
    get_recorder,
    reset_recorder,
    set_recorder,
)

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "TraceRecorder",
    "get_recorder",
    "reset_recorder",
    "set_recorder",
]
