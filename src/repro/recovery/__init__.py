"""Durable, crash-safe experiment execution (``repro.recovery``).

The experiment harness produces every figure and table in this
reproduction, so a harness-level failure mode — a SIGKILL mid-sweep, a
crashed pool worker, a truncated JSON artifact — is as damaging as a
simulator bug. This package makes the harness itself survivable, in
three layers (see ``docs/RECOVERY.md`` for the formats and semantics):

* :mod:`repro.recovery.artifacts` — write-temp-then-rename artifact
  writes with embedded content hashes, and validating loaders that
  fail with one-line, actionable :class:`ArtifactError`\\ s instead of
  stack traces.
* :mod:`repro.recovery.manifest` / :mod:`repro.recovery.checkpoint` —
  run manifests (experiment, parameters, master seed, format/code
  versions) plus an append-then-fsync JSONL checkpoint log with
  per-record checksums. ``omega-sim <sweep> --checkpoint DIR --resume``
  skips already-completed sweep points; because every point is
  self-seeded (the per-point ``LightweightConfig.seed``), a resumed run's result table and
  stitched trace are identical to an uninterrupted run's.
* :mod:`repro.recovery.runner` — ``execute_map``, the one function
  that runs a sweep: inline or in one worker process per point, with
  per-point wall-clock timeouts, a fixed number of retries for crashed
  or timed-out points (completed results are kept), and the checkpoint
  appends and resume skips of the layer above. Incidents surface as
  ``recovery.*`` trace events.

:mod:`repro.recovery.gate` extends the runtime determinism gate with a
kill-and-resume mode (``python -m repro.analysis.determinism
--kill-resume``): it SIGKILLs a checkpointed sweep mid-run, resumes it,
and asserts the final table and trace match an uninterrupted run.
"""
