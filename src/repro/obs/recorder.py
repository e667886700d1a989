"""The process-local trace recorder.

One global recorder receives structured *events* (a point in simulated
time) and *spans* (a region of wall-clock work at one simulated
instant). By default the global recorder is a :class:`NullRecorder`
whose :attr:`~NullRecorder.enabled` flag is ``False``; every
instrumented hot path guards emission with a single attribute check::

    rec = recorder.RECORDER
    if rec.enabled:
        rec.event("txn.begin", t=sim.now, sched=name, job=job_id)

so tracing costs one dictionary-free branch when off.

Records are plain dicts (ready for JSONL export, see
:mod:`repro.obs.export`) with a fixed envelope:

``kind``
    ``"event"`` or ``"span"``.
``name``
    Dotted record name (``txn.commit``, ``sched.busy``, ...).
``t``
    Simulated time (seconds). Inherited from the enclosing span when
    not given.
``sched`` / ``job`` / ``attempt``
    Scheduler id, job id, and 1-based attempt number. Inherited from
    the enclosing span when not given.
``span`` / ``id`` / ``parent``
    Span linkage: events carry the enclosing span's ``id`` in
    ``span``; span records carry their own ``id`` and their parent
    span's id in ``parent``.
``wall_ms``
    Spans only: wall-clock time spent inside the span.

Anything else passed as a keyword lands under ``fields``.
"""

from __future__ import annotations

import time
from typing import Any

from repro.obs.export import JsonlWriter


class _NullSpan:
    """Reusable no-op context manager returned by the null recorder."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def note(self, **fields: Any) -> None:
        """Discard extra span fields (mirror of :meth:`Span.note`)."""


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The zero-overhead default: every call is a no-op.

    ``enabled`` is a class attribute so the hot-path guard
    ``if rec.enabled`` is a plain attribute load.
    """

    enabled = False

    def event(self, name: str, **fields: Any) -> None:
        """Discard an event."""

    def span(self, name: str, **fields: Any) -> _NullSpan:
        """Return a shared no-op context manager."""
        return _NULL_SPAN

    def replay(self, records: list[dict[str, Any]]) -> None:
        """Discard captured records."""

    def close(self) -> None:
        """Nothing to flush."""


class Span:
    """Context manager for one recorded span.

    Entering pushes a context frame (``t``/``sched``/``job``/
    ``attempt`` inherit to nested events and spans); exiting emits the
    span record with its measured wall time.
    """

    __slots__ = ("_recorder", "_name", "_ctx", "_fields", "_id", "_parent", "_wall0")

    def __init__(
        self,
        recorder: "TraceRecorder",
        name: str,
        ctx: dict[str, Any],
        fields: dict[str, Any],
    ) -> None:
        self._recorder = recorder
        self._name = name
        self._ctx = ctx
        self._fields = fields
        self._id = 0
        self._parent: int | None = None
        self._wall0 = 0.0

    def note(self, **fields: Any) -> None:
        """Attach extra fields (e.g. an outcome) before the span closes."""
        self._fields.update(fields)

    def __enter__(self) -> "Span":
        rec = self._recorder
        parent_ctx = rec._context[-1] if rec._context else {}
        ctx = self._ctx
        for key in ("t", "sched", "job", "attempt"):
            if ctx.get(key) is None:
                ctx[key] = parent_ctx.get(key)
        rec._context.append(ctx)
        self._id = rec._next_span_id
        rec._next_span_id += 1
        self._parent = rec._span_stack[-1] if rec._span_stack else None
        rec._span_stack.append(self._id)
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        wall_ms = (time.perf_counter() - self._wall0) * 1000.0
        rec = self._recorder
        rec._span_stack.pop()
        ctx = rec._context.pop()
        record: dict[str, Any] = {
            "kind": "span",
            "name": self._name,
            "id": self._id,
            "parent": self._parent,
            "t": ctx.get("t"),
            "sched": ctx.get("sched"),
            "job": ctx.get("job"),
            "attempt": ctx.get("attempt"),
            "wall_ms": wall_ms,
        }
        if self._fields:
            record["fields"] = self._fields
        rec._emit(record)
        return False


class TraceRecorder:
    """Records structured events and spans, in memory and/or to JSONL.

    ``path`` streams every record to a JSONL file as it is emitted;
    ``keep_records`` retains them in :attr:`records` (defaults to True
    only when no path is given, so long file-backed runs stay flat in
    memory).
    """

    enabled = True

    def __init__(self, path: str | None = None, keep_records: bool | None = None) -> None:
        self.records: list[dict[str, Any]] = []
        self._writer = JsonlWriter(path, atomic=True) if path is not None else None
        self._keep = keep_records if keep_records is not None else path is None
        self._context: list[dict[str, Any]] = []
        self._span_stack: list[int] = []
        self._next_span_id = 1
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
        """Record a point event, inheriting context from the open span."""
        ctx = self._context[-1] if self._context else {}
        record: dict[str, Any] = {
            "kind": "event",
            "name": name,
            "t": t if t is not None else ctx.get("t"),
            "sched": sched if sched is not None else ctx.get("sched"),
            "job": job if job is not None else ctx.get("job"),
            "attempt": attempt if attempt is not None else ctx.get("attempt"),
            "span": self._span_stack[-1] if self._span_stack else None,
        }
        if fields:
            record["fields"] = fields
        self._emit(record)

    def span(
        self,
        name: str,
        *,
        t: float | None = None,
        sched: str | None = None,
        job: int | None = None,
        attempt: int | None = None,
        **fields: Any,
    ) -> Span:
        """Open a span; use as a context manager."""
        ctx = {"t": t, "sched": sched, "job": job, "attempt": attempt}
        return Span(self, name, ctx, fields)

    def replay(self, records: list[dict[str, Any]]) -> None:
        """Re-emit records captured by another recorder (e.g. in a
        parallel worker process).

        Worker recorders number their spans from 1; replaying offsets
        every span-id field (``id``/``parent``/``span``) by this
        recorder's counter, so a trace stitched from per-worker captures
        in submission order is identical to the trace a serial run of
        the same work would have produced.
        """
        offset = self._next_span_id - 1
        max_id = 0
        for record in records:
            clean = dict(record)
            for key in ("id", "parent", "span"):
                value = clean.get(key)
                if isinstance(value, int):
                    clean[key] = value + offset
            if clean.get("kind") == "span" and isinstance(record.get("id"), int):
                if record["id"] > max_id:
                    max_id = record["id"]
            self._emit(clean)
        self._next_span_id += max_id

    def close(self) -> None:
        """Flush and close the JSONL writer, if any."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None


#: The process-global recorder. Instrumented code reads this module
#: attribute directly (``recorder.RECORDER``) so swapping recorders
#: takes effect everywhere immediately.
NULL_RECORDER = NullRecorder()
RECORDER: NullRecorder | TraceRecorder = NULL_RECORDER


def get_recorder() -> NullRecorder | TraceRecorder:
    """Return the current global recorder."""
    return RECORDER


def set_recorder(recorder: NullRecorder | TraceRecorder | None):
    """Install ``recorder`` globally (None restores the null recorder)."""
    global RECORDER  # ambient observer: read by hot-path guards, never steers a run
    RECORDER = recorder if recorder is not None else NULL_RECORDER
    return RECORDER


def reset_recorder() -> NullRecorder:
    """Restore the zero-overhead null recorder and return it."""
    global RECORDER  # ambient observer: read by hot-path guards, never steers a run
    RECORDER = NULL_RECORDER
    return NULL_RECORDER
