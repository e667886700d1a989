"""Observability: structured tracing and metrics.

The paper's evaluation hinges on *per-decision* quantities — which
commit conflicted, where a scheduler's busy time went, how many times a
job retried — that end-of-run aggregates cannot explain.

This package exports only the trace recorder of
:mod:`repro.obs.recorder`: :class:`TraceRecorder`, :class:`NullRecorder`
and its instance ``NULL_RECORDER``. A recorder belongs to one run: it
enters as ``RunContext(recorder=...)`` and every instrumented hot path
reads it as ``sim.recorder``. The default is ``NULL_RECORDER``, a no-op
whose cost on those paths is one attribute check.
Everything else is imported from the module that defines it, so a run
loads none of the consumers:

* :mod:`repro.obs.histogram` — fixed-bucket histograms with percentile
  estimation, serialized into each run's ``run.metrics`` record;
* :mod:`repro.obs.timeline` — the config-gated ``timeline.*`` sampler
  on the simulated clock;
* :mod:`repro.obs.export` — JSONL writing and reading;
* :mod:`repro.obs.summary` — conflict timelines, retry chains and
  busy-time breakdowns (``omega-sim trace``, which reads several traces
  as one to compare their runs);
* :mod:`repro.obs.perfetto` — Chrome/Perfetto trace-event JSON whose
  counter tracks chart the ``timeline.*`` series (``omega-sim perfetto``).

Trace a run by giving it a recorder::

    from repro import obs, run_lightweight
    from repro.world import RunContext

    recorder = obs.TraceRecorder(path="run.jsonl", keep_records=False)
    try:
        run_lightweight(config, RunContext(recorder=recorder))
    finally:
        recorder.close()

See ``docs/OBSERVABILITY.md`` for the record schema and a walkthrough.
"""

from repro.obs.recorder import NULL_RECORDER, NullRecorder, TraceRecorder

__all__ = ["NULL_RECORDER", "NullRecorder", "TraceRecorder"]
