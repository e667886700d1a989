"""The omega-lint engine: file walking, suppression handling, dispatch.

Suppressions are inline comments::

    value = a == b  # omega-lint: disable=FLT001 -- ids, not resources
    # omega-lint: disable-next-line=DET003 -- order folded by sum()
    total = sum(x for x in pool)

Multiple rules separate with commas (``disable=FLT001,GEN001``);
everything after ``--`` is a justification for human readers. A
suppression applies to findings anchored on its line (or the next line
for ``disable-next-line``). Unknown rule ids in suppressions are
findings themselves (rule ``LNT000``) so typos cannot silently turn a
check off.

Each file is linted on its own: one parse, one
:class:`~repro.analysis.rules.ModuleContext` shared by every rule, and
no rule looks at another module.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.analysis.config import LintConfig, load_config
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import ALL_RULES, ModuleContext, Rule

_SUPPRESS_RE = re.compile(
    r"#\s*omega-lint:\s*(disable|disable-next-line)\s*=\s*"
    r"([A-Za-z0-9_,\s]+?)\s*(?:--.*)?$"
)

#: Rule ids that may appear in suppression comments: every rule plus
#: the engine's own LNT findings.
KNOWN_RULE_IDS = frozenset({rule.id for rule in ALL_RULES} | {"LNT000", "LNT001"})


def _suppressions(
    source: str, path: str
) -> tuple[dict[int, set[str]], list[Diagnostic]]:
    """Map line -> suppressed rule ids; plus diagnostics for bad ids."""
    by_line: dict[int, set[str]] = {}
    problems: list[Diagnostic] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        target = lineno + 1 if match.group(1) == "disable-next-line" else lineno
        rules = {rule.strip() for rule in match.group(2).split(",") if rule.strip()}
        unknown = sorted(rules - KNOWN_RULE_IDS)
        if unknown:
            problems.append(
                Diagnostic(
                    path=path,
                    line=lineno,
                    col=match.start() + 1,
                    rule="LNT000",
                    severity="error",
                    message=(
                        f"suppression names unknown rule(s) {', '.join(unknown)}"
                    ),
                )
            )
        by_line.setdefault(target, set()).update(rules & KNOWN_RULE_IDS)
    return by_line, problems


def _unreadable(path: str, line: int, col: int, message: str) -> Diagnostic:
    """An LNT001 finding: the file could not be decoded or parsed."""
    return Diagnostic(
        path=path,
        line=line,
        col=col,
        rule="LNT001",
        severity="error",
        message=message,
    )


def lint_source(
    source: str,
    path: str = "<string>",
    config: LintConfig | None = None,
    rules: tuple[Rule, ...] = ALL_RULES,
) -> list[Diagnostic]:
    """Lint one module's source text; returns sorted diagnostics."""
    config = config if config is not None else LintConfig()
    suppressed, findings = _suppressions(source, path)
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError) as exc:
        # Older Pythons (3.10 among them) raise ValueError on a NUL byte.
        line = getattr(exc, "lineno", None) or 1
        col = getattr(exc, "offset", None) or 1
        message = getattr(exc, "msg", None) or str(exc)
        findings.append(_unreadable(path, line, col, f"syntax error: {message}"))
    else:
        module = ModuleContext(path=path, tree=tree, config=config)
        for rule in rules:
            if config.rule_enabled(rule.id):
                findings.extend(rule.check(module))
    return sorted(
        diag for diag in findings if diag.rule not in suppressed.get(diag.line, ())
    )


def iter_python_files(paths: list[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated file list."""
    found: set[Path] = set()
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            found.update(path.rglob("*.py"))
        else:
            found.add(path)
    return sorted(found)


def lint_paths(
    paths: list[str | Path],
    config: LintConfig | None = None,
    rules: tuple[Rule, ...] = ALL_RULES,
) -> list[Diagnostic]:
    """Lint every ``*.py`` under ``paths``; returns sorted diagnostics.

    Raises ``FileNotFoundError`` for a path that does not exist — the
    CLI maps that to exit code 2 (user error, not a finding). A file
    that is not UTF-8 is an LNT001 finding, like one that does not parse.
    """
    for entry in paths:
        if not Path(entry).exists():
            raise FileNotFoundError(f"no such path: {entry}")
    if config is None:
        config = load_config()
    findings: list[Diagnostic] = []
    for file in iter_python_files(paths):
        posix = file.as_posix()
        if config.excluded(posix):
            continue
        try:
            source = file.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            message = f"not UTF-8: {exc.reason} at byte {exc.start}"
            findings.append(_unreadable(posix, 1, 1, message))
            continue
        findings.extend(lint_source(source, posix, config, rules))
    return sorted(findings)
