"""JSONL (one JSON object per line) persistence for trace records.

The trace format is deliberately boring: every record is a flat JSON
object, written append-only, so traces survive crashed runs (every
complete line is valid) and compose with standard tooling
(``jq``, ``grep``, pandas' ``read_json(lines=True)``).

Records stream to ``<path>.tmp`` and are fsync'd and renamed onto
``path`` on close: the final path only ever holds a *complete* trace,
never one truncated by a crash. An interrupted run leaves its partial
trace behind under the clearly-labelled ``.tmp`` name, so nothing is
lost for post-mortems.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterator, TextIO


class JsonlWriter:
    """Streams records to ``<path>.tmp`` as they are emitted; ``close``
    renames the file onto ``path``."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._write_path = path + ".tmp"
        self._file: TextIO | None = open(self._write_path, "w", encoding="utf-8")

    def write(self, record: dict[str, Any]) -> None:
        if self._file is None:
            raise ValueError(f"writer for {self.path} is closed")
        self._file.write(json.dumps(record, separators=(",", ":")))
        self._file.write("\n")

    def close(self) -> None:
        """Flush, fsync and close the file, then rename it onto the
        final path; closing twice is a no-op."""
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            self._file = None
            os.replace(self._write_path, self.path)


#: The trace format each ``run.start`` record names as ``trace_version``:
#: 2 is one ``sched.attempt`` record per scheduling attempt.
TRACE_VERSION = 2

_NONE = type(None)
#: The record envelope of docs/OBSERVABILITY.md, as the types a loaded
#: value may have; ``None`` is accepted wherever the recorder writes it.
_ENVELOPE: dict[str, tuple[type, ...]] = {
    "t": (int, float, _NONE), "sched": (str, _NONE),
    "job": (int, str, _NONE), "attempt": (int, _NONE), "fields": (dict,),
}


def iter_jsonl(path: str) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield ``(line number, record)`` for every record of a JSONL trace.

    Blank lines are skipped. A line that is not UTF-8 or not JSON, a
    record without a string ``name``, an envelope key whose value has
    the wrong type, a ``run.start`` record of another
    :data:`TRACE_VERSION`, or a ``sched.attempt`` record without a
    numeric ``t0`` or with a ``conflicts`` entry that is not a
    ``[machine, tasks, cause]`` triple raises :class:`ValueError`
    naming ``path:line``.
    """
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed trace line: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: trace record is not an object")
            if not isinstance(record.get("name"), str):
                raise ValueError(f"{path}:{lineno}: trace record has no string 'name'")
            for key, types in _ENVELOPE.items():
                if key in record and not isinstance(record[key], types):
                    raise ValueError(
                        f"{path}:{lineno}: trace record field {key!r} has "
                        f"{type(record[key]).__name__} value {record[key]!r}"
                    )
            problem = _record_problem(record)
            if problem is not None:
                raise ValueError(f"{path}:{lineno}: {problem}")
            yield lineno, record


def _record_problem(record: dict[str, Any]) -> str | None:
    """What makes a ``run.start`` or ``sched.attempt`` record unreadable
    to the trace tools, or None."""
    name = record.get("name")
    fields = record.get("fields") or {}
    if name == "run.start":
        version = fields.get("trace_version")
        if version != TRACE_VERSION:
            return (
                f"trace format version {version!r}, expected {TRACE_VERSION}: "
                "record the run again"
            )
    elif name == "sched.attempt":
        start = fields.get("t0")
        if not isinstance(start, (int, float)):
            return f"sched.attempt t0 {start!r} is not a time"
        conflicts = fields.get("conflicts", [])
        if not isinstance(conflicts, list) or not all(
            isinstance(c, list) and len(c) == 3 and isinstance(c[0], int)
            and isinstance(c[1], int) and isinstance(c[2], str)
            for c in conflicts
        ):
            return "sched.attempt conflicts must be [machine, tasks, cause] triples"
    return None


def read_jsonl(path: str) -> list[dict[str, Any]]:
    """Load every record from a JSONL trace file (see :func:`iter_jsonl`)."""
    return [record for _, record in iter_jsonl(path)]


def read_trace(*paths: str) -> list[tuple[str, dict[str, Any]]]:
    """``(path:line, record)`` for every record of the trace files, read
    in order as one trace: :func:`iter_jsonl`'s refusals, and a
    ``ValueError`` when no file holds a ``run.start`` record (an empty
    file, or JSONL that no run wrote)."""
    numbered = [
        (f"{path}:{lineno}", record) for path in paths for lineno, record in iter_jsonl(path)
    ]
    if not any(record["name"] == "run.start" for _, record in numbered):
        raise ValueError(f"{' '.join(paths)}: no run.start record: not an omega-sim trace")
    return numbered
