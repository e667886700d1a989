"""The prose must not outlive the code it describes.

Over README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md: every
``omega-sim <sub>`` names a real subcommand and every ``--flag`` after
it on that line is one of that subcommand's options, every relative
markdown link resolves, and every back-ticked path into the tree
exists (with the tests a ``path::Class::test`` names), and every
back-ticked ``repro.``-dotted name (module, class, function, method; a
trailing ``()`` allowed) imports. And the other way round: every
registered experiment command is named somewhere as ``omega-sim <sub>``,
and every flag it declares appears on such a line.
CHANGES.md and ROADMAP.md are history and plans, and may name things
that are gone.
"""

from __future__ import annotations

import glob
import importlib
import re
from pathlib import Path

import pytest

from repro.experiments.cli import build_parser
from repro.experiments.registry import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
DOCS += sorted((ROOT / "docs").glob("*.md"))
TREE_PREFIXES = ("src/", "tests/", "docs/", "bench/", "benchmarks/", "examples/")

COMMAND = re.compile(r"omega-sim +([a-z][a-z0-9-]*)")
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BACKTICKED = re.compile(r"`([^`\s]+)`")
DOTTED = re.compile(r"(repro(?:\.\w+)+)(?:\(\))?")

#: Subcommand name -> its option strings, read off the real parser.
OPTIONS = {
    name: set(sub._option_string_actions)
    for action in build_parser()._actions
    if isinstance(action.choices, dict)
    for name, sub in action.choices.items()
}


def resolve(dotted: str):
    """Import the longest module prefix of ``dotted``, ``getattr`` the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute)
        return target
    raise ImportError(dotted)


def stale_references(path: Path):
    """Yield one ``file:line: what is wrong`` per reference to something gone."""
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        where = f"{path.relative_to(ROOT)}:{number}"
        commands = list(COMMAND.finditer(line))
        for match, following in zip(commands, commands[1:] + [None]):
            sub = match.group(1)
            if sub not in OPTIONS:
                yield f"{where}: no subcommand `omega-sim {sub}`"
                continue
            # Flags up to the next command on the line belong to this one.
            rest = line[match.end() : following.start() if following else None]
            for flag in FLAG.findall(rest):
                if flag not in OPTIONS[sub]:
                    yield f"{where}: `omega-sim {sub}` has no option {flag}"
        for target in LINK.findall(line):
            if re.match(r"[a-z][a-z0-9+.-]*:|#", target):
                continue  # absolute URL or in-page anchor
            if not (path.parent / target.split("#", 1)[0]).exists():
                yield f"{where}: broken link {target}"
        for token in BACKTICKED.findall(line):
            dotted = DOTTED.fullmatch(token)
            if dotted:
                try:
                    resolve(dotted.group(1))
                except (ImportError, AttributeError):
                    yield f"{where}: no such name {token}"
            if not token.startswith(TREE_PREFIXES):
                continue
            # `src/x.py:12` names a file; `tests/x.py::TestY::test_z`
            # names a file and the definitions to find in it.
            file_part, *names = re.split(r"::|:\d+$", token)
            if not glob.glob(str(ROOT / file_part)):
                yield f"{where}: no such path {file_part}"
                continue
            source = (ROOT / file_part).read_text() if names else ""
            for name in filter(None, names):
                if not re.search(rf"^\s*(def|class) {name}\b", source, re.M):
                    yield f"{where}: no {name} in {file_part}"


@pytest.mark.parametrize("path", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_doc_references_exist(path):
    problems = list(stale_references(path))
    assert not problems, "\n".join(problems)


DOC_LINES = [
    line for path in DOCS for line in path.read_text(encoding="utf-8").splitlines()
]


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_registered_command_is_documented(name):
    """The reverse direction: a command (or a flag it declares) that no
    doc mentions is as stale as a doc naming a command that is gone."""
    command = re.compile(rf"omega-sim +{re.escape(name)}(?![\w-])")
    lines = [line for line in DOC_LINES if command.search(line)]
    assert lines, f"no doc names `omega-sim {name}`"
    for argument in EXPERIMENTS[name].arguments:
        assert any(argument.flag in line for line in lines), (
            f"no doc line naming `omega-sim {name}` shows {argument.flag}"
        )


def test_one_attempt_body_and_one_service_loop():
    """DESIGN.md §3.4's structural claim: the sync → plan → commit →
    resolve transaction is written once (one class whose ``attempt``
    calls a commit; specialised schedulers are plans), and the think-
    start / think-complete bookkeeping once, in ``schedulers/base.py``."""
    import ast

    committing, bookkeepers = [], []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = path.relative_to(ROOT / "src" / "repro").as_posix()
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for method in cls.body:
                if isinstance(method, ast.FunctionDef) and method.name == "attempt":
                    callees = {
                        getattr(call.func, "attr", getattr(call.func, "id", ""))
                        for call in ast.walk(method)
                        if isinstance(call, ast.Call)
                    }
                    if callees & {"commit", "_commit", "commit_with_preemption"}:
                        committing.append(f"{where}:{cls.name}")
        if where == "schedulers/base.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(ast.unparse(target) == "self._busy" for target in targets):
                    bookkeepers.append(f"{where}:{node.lineno} assigns self._busy")
            elif isinstance(node, ast.Call) and (
                getattr(node.func, "attr", "") == "record_busy"
            ):
                bookkeepers.append(f"{where}:{node.lineno} calls record_busy")
    assert committing == ["core/scheduler.py:OmegaScheduler"]
    assert not bookkeepers, "\n".join(bookkeepers)
