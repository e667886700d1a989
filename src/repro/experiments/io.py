"""Saving experiment result rows.

Experiment drivers return plain row dicts; this module persists them as
JSON (with a metadata envelope) or CSV so runs can be compared across
machines, scales and code versions. The ``omega-sim`` CLI exposes this
via ``--output``.

Writes are atomic (temp-file + fsync + rename, see
:mod:`repro.recovery.artifacts`): a crashed or killed run can never
leave a truncated result file behind — the output path either holds the
complete previous table or the complete new one. JSON envelopes embed a
``content_hash`` that
:func:`repro.recovery.artifacts.load_json_artifact` verifies, so
corruption after the write (disk faults, partial copies, manual edits)
fails loudly instead of silently skewing comparisons.
"""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path
from typing import Any

from repro.recovery.artifacts import atomic_write_text, write_json_artifact

#: Envelope format version, bumped on breaking changes.
FORMAT_VERSION = 1


def check_output_path(path: str | Path) -> None:
    """Raise a one-line ``ValueError`` if :func:`save_rows` could not
    write ``path``: unsupported suffix, or a directory that is missing
    or not writable. The CLI checks before it computes the rows."""
    path = Path(path)
    if path.suffix not in (".json", ".csv"):
        raise ValueError(
            f"unsupported output format {path.suffix!r}; use .json or .csv"
        )
    if not path.parent.is_dir():
        raise ValueError(f"directory {path.parent} does not exist")
    if not os.access(path.parent, os.W_OK | os.X_OK):
        raise ValueError(f"directory {path.parent} is not writable")


def save_rows(
    rows: list[dict],
    path: str | Path,
    experiment: str = "",
    parameters: dict[str, Any] | None = None,
) -> Path:
    """Atomically write rows to ``path``; the suffix picks the format.

    ``.json`` wraps the rows in an envelope carrying the experiment name,
    parameters and a ``content_hash``; ``.csv`` writes a flat table (the
    union of all row keys, in first-seen order).
    """
    path = Path(path)
    check_output_path(path)
    if path.suffix == ".json":
        envelope = {
            "format_version": FORMAT_VERSION,
            "experiment": experiment,
            "parameters": parameters or {},
            "rows": rows,
        }
        write_json_artifact(path, envelope)
    else:
        columns: list[str] = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        buffer = io.StringIO(newline="")
        writer = csv.DictWriter(buffer, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
        atomic_write_text(path, buffer.getvalue())
    return path

