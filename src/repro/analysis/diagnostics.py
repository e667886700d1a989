"""Diagnostics emitted by the omega-lint rule engine.

A :class:`Diagnostic` is one finding: *where* (file, line, column),
*what* (rule id + message) and *how bad* (severity). Findings are
value objects with a total ordering so reports are deterministic — the
linter enforces determinism on the simulator, so it had better be
deterministic itself.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass


#: Severity levels, by increasing weight. ``error`` findings fail the
#: build; ``warning`` findings are reported but do not affect the exit
#: code (no shipped rule currently uses ``warning`` — the hook exists so
#: a rule can be staged in before it starts gating CI).
SEVERITIES = ("warning", "error")


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding, ordered by (path, line, col, rule)."""

    path: str
    line: int
    col: int
    rule: str
    severity: str
    message: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def format_text(self) -> str:
        """``path:line:col: RULE error: message`` (editor-clickable)."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.severity}: {self.message}"
        )


def render_text(diagnostics: list[Diagnostic]) -> str:
    """Plain-text report: one finding per line plus a summary line."""
    lines = [diag.format_text() for diag in diagnostics]
    count = len(diagnostics)
    lines.append(f"omega-lint: {count} finding{'s' if count != 1 else ''}")
    return "\n".join(lines)


def render_json(diagnostics: list[Diagnostic]) -> str:
    """Machine-readable report (stable key order, sorted findings)."""
    payload = {
        "findings": [asdict(diag) for diag in diagnostics],
        "count": len(diagnostics),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
