"""Command-line front end for omega-lint.

Used both as ``python -m repro.analysis`` and as the ``omega-sim lint``
subcommand. Exit codes follow the repo convention (see the ``trace``
subcommand): 0 clean, 1 findings, 2 user error (missing path, bad
flag) with a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import sys


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the lint flags on ``parser`` (shared with omega-sim)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--config",
        metavar="PYPROJECT",
        default=None,
        help="pyproject.toml to read [tool.omega-lint] from "
        "(default: search upward from the current directory)",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    from repro.analysis.config import load_config
    from repro.analysis.diagnostics import render_json, render_text
    from repro.analysis.engine import lint_paths

    try:
        config = load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"omega-lint: bad config: {exc}", file=sys.stderr)
        return 2
    try:
        findings = lint_paths(args.paths, config=config)
    except FileNotFoundError as exc:
        print(f"omega-lint: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"omega-lint: cannot read input: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if any(diag.severity == "error" for diag in findings) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="omega-lint",
        description="Static analysis for the Omega reproduction: "
        "determinism, transaction-safety, and resource-arithmetic "
        "invariants (see docs/STATIC_ANALYSIS.md).",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
