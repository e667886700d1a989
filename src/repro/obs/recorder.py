"""The trace recorder of a run.

Each run owns one recorder, given as ``RunContext(recorder=...)``
(:mod:`repro.world`) and read by every instrumented component as
``sim.recorder``; it receives structured *events*, each a point in
simulated time. By default it is ``NULL_RECORDER``, a
:class:`NullRecorder` whose :attr:`~NullRecorder.enabled` flag is
``False``; every instrumented hot path guards emission with a single
attribute check::

    rec = self.sim.recorder
    if rec.enabled:
        rec.event("run.start", t=sim.now, seed=seed)

so tracing costs one dictionary-free branch when off.

Records are plain dicts (ready for JSONL export, see
:mod:`repro.obs.export`) with a fixed envelope:

``name``
    Dotted record name (``sched.attempt``, ``run.start``, ...).
``t``
    Simulated time (seconds).
``sched`` / ``job`` / ``attempt``
    Scheduler id, job id, and 1-based attempt number, where they apply.

Anything else passed as a keyword lands under ``fields``.
"""

from __future__ import annotations

from typing import Any

from repro.obs.export import JsonlWriter


class NullRecorder:
    """The zero-overhead default: every call is a no-op.

    ``enabled`` is a class attribute so the hot-path guard
    ``if rec.enabled`` is a plain attribute load.
    """

    enabled = False

    def event(self, name: str, **fields: Any) -> None:
        """Discard an event."""

    def replay(self, records: list[dict[str, Any]]) -> None:
        """Discard captured records."""

    def close(self) -> None:
        """Nothing to flush."""


class TraceRecorder:
    """Records structured events, in memory and/or to JSONL.

    ``path`` streams every record to a JSONL file as it is emitted;
    ``keep_records`` retains them in :attr:`records` (defaults to True
    only when no path is given, so long file-backed runs stay flat in
    memory).
    """

    enabled = True

    def __init__(self, path: str | None = None, keep_records: bool | None = None) -> None:
        self.records: list[dict[str, Any]] = []
        self._writer = JsonlWriter(path) if path is not None else None
        self._keep = keep_records if keep_records is not None else path is None
        self.records_emitted = 0

    # ------------------------------------------------------------------
    def _emit(self, record: dict[str, Any]) -> None:
        self.records_emitted += 1
        if self._keep:
            self.records.append(record)
        if self._writer is not None:
            self._writer.write(record)

    def event(
        self,
        name: str,
        *,
        t: float | None = None,
        sched: str | None = None,
        job: int | None = None,
        attempt: int | None = None,
        **fields: Any,
    ) -> None:
        """Record a point event."""
        record: dict[str, Any] = {
            "name": name,
            "t": t,
            "sched": sched,
            "job": job,
            "attempt": attempt,
        }
        if fields:
            record["fields"] = fields
        self._emit(record)

    def replay(self, records: list[dict[str, Any]]) -> None:
        """Re-emit records captured by another recorder (e.g. in a
        parallel worker process), in order."""
        for record in records:
            self._emit(record)

    def close(self) -> None:
        """Flush and close the JSONL writer, if any."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None


#: The default recorder of every run: tracing off.
NULL_RECORDER = NullRecorder()
