"""Crash-safe checkpoint store: manifest + append-then-fsync point log.

Layout of a checkpoint directory::

    manifest.json   # RunManifest, atomic write, content-hashed
    points.jsonl    # one completed sweep point per line, append-only

Each log line is ``{"record": {...}, "sha256": "sha256:..."}`` where
the checksum covers the canonical JSON of ``record``. Appends are
flushed and ``fsync``'d before :meth:`CheckpointStore.append` returns,
so a record is either durably complete or (if the process died mid-
write) a recognizably partial *final* line. On resume that partial
tail is salvaged — truncated away with a warning — while a corrupt or
checksum-failing record anywhere *before* the tail is a hard
:class:`RecoveryError`: it means the log was damaged after the fact,
and resuming from it would silently corrupt the result table.

Record schema (written by :func:`repro.recovery.runner.execute_map`)::

    {"index": 3, "label": "...", "row": {...}, "trace": [...] | null}

``index`` is the point's position within the command's one sweep, and
``label`` is a deterministic description of the point used to refuse
resumes whose sweep structure changed. ``trace`` holds the point's
captured trace records when the run is traced, so a resumed run can
re-emit them and produce a stitched trace identical to an
uninterrupted run's.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, TextIO

from repro.recovery.artifacts import (
    ArtifactError,
    canonical_json,
    checksum_line,
    load_json_artifact,
    write_json_artifact,
)
from repro.recovery.manifest import CHECKPOINT_FORMAT_VERSION, RunManifest

__all__ = ["CHECKPOINT_FORMAT_VERSION", "CheckpointStore", "RecoveryError"]

MANIFEST_NAME = "manifest.json"
LOG_NAME = "points.jsonl"


#: Record keys whose JSON type is checked on load: (key, types, name).
_RECORD_TYPES = (
    ("index", int, "an integer"),
    ("label", str, "a string"),
    ("row", dict, "an object"),
    ("trace", (list, type(None)), "a list or null"),
)


class RecoveryError(ValueError):
    """A checkpoint cannot be created or resumed; one-line, exit 2."""


def _parse_log_line(line: str) -> dict[str, Any]:
    """Parse and checksum-verify one log line; raises ValueError."""
    entry = json.loads(line)
    if not isinstance(entry, dict) or "record" not in entry:
        raise ValueError("not a checkpoint entry object")
    record = entry["record"]
    expected = entry.get("sha256")
    actual = checksum_line(canonical_json(record))
    if expected != actual:
        raise ValueError(f"checksum mismatch (stored {expected}, computed {actual})")
    if not isinstance(record, dict) or "index" not in record:
        raise ValueError("checkpoint record is missing its index")
    for key, kinds, name in _RECORD_TYPES:
        value = record.get(key)
        if key in record and (not isinstance(value, kinds) or isinstance(value, bool)):
            raise ValueError(f"{key!r} must be {name}, got {value!r}")
    return record


class CheckpointStore:
    """Manifest plus completed-point log for one checkpointed run. As a
    context manager it closes the log on exit."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.manifest: RunManifest | None = None
        #: Point index -> stored record for every durable point.
        self.completed: dict[int, dict[str, Any]] = {}
        #: Records appended by this process (new completions).
        self.appended = 0
        #: 1-based line number of a salvaged (truncated) tail, if any.
        self.salvaged_line: int | None = None
        self._handle: TextIO | None = None

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def log_path(self) -> Path:
        return self.directory / LOG_NAME

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def initialize(self, manifest: RunManifest) -> None:
        """Start a fresh checkpoint; refuses to overwrite an existing one."""
        if self.manifest_path.exists() or self.log_path.exists():
            raise RecoveryError(
                f"{self.directory}: already contains a checkpoint; pass "
                "--resume to continue it or point --checkpoint at a fresh "
                "directory"
            )
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            reason = exc.strerror or exc.__class__.__name__
            raise RecoveryError(
                f"{self.directory}: cannot create checkpoint directory: {reason}"
            ) from exc
        write_json_artifact(self.manifest_path, manifest.to_doc())
        self.manifest = manifest
        self._open_log()

    def resume(self, manifest: RunManifest) -> int:
        """Load an existing checkpoint for ``manifest``'s run.

        Returns the number of completed points recovered. Raises
        :class:`RecoveryError` when the manifest is missing/corrupt,
        recorded for a different run, or the log is damaged beyond its
        final (salvageable) line.
        """
        try:
            doc = load_json_artifact(
                self.manifest_path,
                description="checkpoint manifest",
                require=("experiment", "seed", "parameters"),
            )
            recorded = RunManifest.from_doc(doc, path=str(self.manifest_path))
        except ArtifactError as exc:
            raise RecoveryError(str(exc)) from exc
        problems = manifest.mismatches(recorded)
        if problems:
            raise RecoveryError(
                f"{self.directory}: cannot resume: {'; '.join(problems)}"
            )
        self._load_log()
        self.manifest = manifest
        self._open_log()
        return len(self.completed)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the point log
    # ------------------------------------------------------------------
    def append(self, record: dict[str, Any]) -> None:
        """Durably append one completed point (write + flush + fsync)."""
        if self._handle is None:
            self._open_log()
        entry = {
            "record": record,
            "sha256": checksum_line(canonical_json(record)),
        }
        self._handle.write(json.dumps(entry, separators=(",", ":")) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.completed[record["index"]] = record
        self.appended += 1

    def _open_log(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.log_path, "a", encoding="utf-8")

    def _load_log(self) -> None:
        """Replay the log into :attr:`completed`, salvaging a partial tail."""
        if not self.log_path.exists():
            return  # killed before the first point completed
        # Byte-accurate offsets so tail truncation is exact.
        data = self.log_path.read_bytes()
        lines = data.splitlines(keepends=True)
        offset = 0
        for lineno, raw_bytes in enumerate(lines, start=1):
            raw = raw_bytes.decode("utf-8", errors="replace")
            line = raw.strip()
            if not line:
                offset += len(raw_bytes)
                continue
            try:
                record = _parse_log_line(line)
            except ValueError as exc:
                is_tail = lineno == len(lines)
                if is_tail:
                    # The expected crash signature: the process died
                    # mid-append. Drop the partial record; the point
                    # re-runs deterministically.
                    self._truncate_log(offset)
                    self.salvaged_line = lineno
                    return
                raise RecoveryError(
                    f"{self.log_path}:{lineno}: corrupt checkpoint record "
                    f"before the end of the log ({exc}); the log was "
                    "damaged after it was written — remove the checkpoint "
                    "directory and rerun"
                ) from exc
            self.completed[record["index"]] = record
            offset += len(raw_bytes)

    def _truncate_log(self, offset: int) -> None:
        with open(self.log_path, "r+b") as handle:
            handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())
