"""Atomic, integrity-checked artifact writes and validating loads.

Every result file this repository produces (experiment row tables,
checkpoint manifests) goes through one of two writers:

* :func:`atomic_write_text` — write to a temp file in the same
  directory, flush, ``fsync``, then ``os.replace`` onto the final
  name. A reader (or a rerun) can never observe a truncated artifact:
  the final path either holds the complete previous version or the
  complete new one.
* :func:`write_json_artifact` — the same, for JSON documents, with a
  ``content_hash`` field embedded so corruption *after* the write
  (disk faults, manual edits, partial copies) is detected at load.

:func:`load_json_artifact` is the matching validating loader: every
failure mode (missing file, invalid JSON, wrong shape, hash mismatch)
raises :class:`ArtifactError` with a one-line message naming the path
and the problem, which the CLI maps to exit code 2.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Iterable

#: The hash algorithm prefix embedded in artifacts.
_HASH_PREFIX = "sha256:"


class ArtifactError(ValueError):
    """An artifact is missing, corrupt, or structurally invalid.

    Messages are single-line and actionable (they name the path and the
    failure); the CLI reports them verbatim and exits 2 instead of
    stack-tracing.
    """


def canonical_json(doc: Any) -> str:
    """The canonical serialization content hashes are computed over."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def content_hash(doc: Any) -> str:
    """``sha256:<hex>`` over the canonical JSON form of ``doc``."""
    digest = hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
    return _HASH_PREFIX + digest


def checksum_line(text: str) -> str:
    """``sha256:<hex>`` over raw text (checkpoint-log record bodies)."""
    return _HASH_PREFIX + hashlib.sha256(text.encode("utf-8")).hexdigest()


def fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory entry after a rename."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # e.g. platforms/filesystems without directory fds
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` via temp-file + fsync + ``os.replace``.

    The temp file lives in the same directory (same filesystem, so the
    rename is atomic) and is named ``<name>.tmp.<pid>``; an interrupted
    write leaves only that clearly-labelled temp file behind, never a
    truncated ``path``. A failed rename removes the temp file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    try:
        os.replace(tmp, path)
    except OSError:
        os.remove(tmp)
        raise
    fsync_directory(path.parent)
    return path


def write_json_artifact(
    path: str | Path,
    doc: dict[str, Any],
    embed_hash: bool = True,
    indent: int | None = 2,
) -> Path:
    """Atomically write a JSON document, embedding a ``content_hash``.

    The hash covers every key except ``content_hash`` itself, over the
    canonical (sorted, compact) serialization, so it is stable under
    re-serialization and key reordering.
    """
    doc = dict(doc)
    doc.pop("content_hash", None)
    if embed_hash:
        doc["content_hash"] = content_hash(doc)
    return atomic_write_text(path, json.dumps(doc, indent=indent) + "\n")


def load_json_artifact(
    path: str | Path,
    description: str = "artifact",
    require: Iterable[str] = (),
) -> dict[str, Any]:
    """Load and validate a JSON artifact; every failure is one line.

    Validation: the file must exist and parse, the document must be a
    JSON object, any embedded ``content_hash`` must verify, and every
    key in ``require`` must be present.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        reason = exc.strerror or exc.__class__.__name__
        raise ArtifactError(
            f"{path}: cannot read {description}: {reason}"
        ) from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ArtifactError(
            f"{path}: corrupt {description}: not valid JSON ({exc})"
        ) from exc
    if not isinstance(doc, dict):
        raise ArtifactError(
            f"{path}: corrupt {description}: expected a JSON object, "
            f"got {type(doc).__name__}"
        )
    stored = doc.get("content_hash")
    if stored is not None:
        body = {key: value for key, value in doc.items() if key != "content_hash"}
        computed = content_hash(body)
        if computed != stored:
            raise ArtifactError(
                f"{path}: {description} failed its integrity check "
                f"(stored {stored}, computed {computed}); the file was "
                "truncated or modified after it was written"
            )
    missing = [key for key in require if key not in doc]
    if missing:
        raise ArtifactError(
            f"{path}: corrupt {description}: missing required "
            f"key(s) {', '.join(repr(key) for key in missing)}"
        )
    return doc
