"""omega-lint configuration: defaults plus ``[tool.omega-lint]`` in pyproject.

Every allowlist is a list of path globs matched against the *posix*
form of the linted file's path. Patterns are anchored loosely: a
pattern matches the path itself or any suffix starting at a directory
boundary, so ``repro/obs/*`` matches both ``repro/obs/recorder.py``
and ``src/repro/obs/recorder.py`` regardless of where the linter was
invoked from.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fnmatch import fnmatch
from pathlib import Path

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - 3.10 fallback
    tomllib = None


def match_path(path: str | Path, patterns: tuple[str, ...] | list[str]) -> bool:
    """Whether ``path`` matches any glob, loosely anchored (see module doc)."""
    posix = Path(path).as_posix()
    for pattern in patterns:
        if fnmatch(posix, pattern) or fnmatch(posix, "*/" + pattern):
            return True
    return False


@dataclass(frozen=True)
class LintConfig:
    """Rule-engine configuration (defaults reflect this repo's layout)."""

    #: Globs excluded from linting entirely.
    exclude: tuple[str, ...] = ()
    #: Rule ids disabled globally.
    disable: tuple[str, ...] = ()
    #: DET001: the only modules allowed to construct raw RNGs. Everything
    #: else must draw from a named repro.sim.random.RandomStreams stream.
    rng_allow: tuple[str, ...] = ("repro/sim/random.py",)
    #: DET002: modules allowed to read the wall clock (observability and
    #: the engine's stats()/profiler bookkeeping — never decision logic).
    clock_allow: tuple[str, ...] = (
        "repro/obs/*",
        "repro/sim/engine.py",
        "repro/recovery/*",
    )
    #: DET003: scheduler/placement decision paths where unordered
    #: set/dict iteration is flagged.
    decision_paths: tuple[str, ...] = (
        "repro/schedulers/*",
        "repro/core/*",
        "repro/hifi/*",
        "repro/mapreduce/*",
        "repro/faults/*",
        "repro/invariants.py",
    )
    #: FIJ001: fault-injection modules. Fault schedules must be driven
    #: by simulated time and RNG streams forked from the run's master
    #: RandomStreams — never the wall clock or a freshly-seeded RNG.
    fault_injector_paths: tuple[str, ...] = (
        "repro/faults/*",
        "repro/hifi/failures.py",
        "repro/core/retry.py",
        "repro/invariants.py",
    )
    #: RBS001: recovery-critical paths (parallel workers, checkpoint
    #: and artifact writers) where broad exception handlers without a
    #: re-raise are flagged — swallowed failures there defeat the
    #: crash-safety guarantees of repro.recovery.
    recovery_paths: tuple[str, ...] = (
        "repro/recovery/*",
        "repro/experiments/io.py",
        "repro/obs/export.py",
    )
    #: TXN001: the only modules allowed to mutate master cell-state
    #: resource fields (the section 3.4 optimistic-commit path).
    txn_allow: tuple[str, ...] = (
        "repro/core/cellstate.py",
        "repro/core/transaction.py",
    )
    #: TXN001: receivers whose name contains one of these tokens are
    #: private scratch copies (CellSnapshot, Mesos offers, plan views),
    #: which schedulers may freely mutate.
    snapshot_names: tuple[str, ...] = ("snapshot", "snap", "offer", "plan")
    #: TXN001: the guarded CellState resource fields.
    resource_fields: tuple[str, ...] = ("free_cpu", "free_mem", "seq")

    def rule_enabled(self, rule_id: str) -> bool:
        return rule_id not in self.disable

    def excluded(self, path: str | Path) -> bool:
        return match_path(path, self.exclude)


_KEY_ALIASES = {f.name.replace("_", "-"): f.name for f in fields(LintConfig)}


def _parse_toml_fallback(text: str) -> dict:
    """Tiny parser for the ``[tool.omega-lint]`` section (3.10, no tomllib).

    Handles only the subset this config uses: ``key = value`` under the
    section header, where a list may span lines. A value is read as a
    Python literal, so ``5`` or ``[1, 2]`` reaches :func:`load_config`'s
    type check as it would from tomllib; a value that is no literal at
    all, or a list left open, raises ``ValueError`` naming the key.
    """
    import ast

    section: dict[str, object] = {}
    in_section = False
    key = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if key is not None:  # inside a list that spans lines
            value += line
        elif line.startswith("["):
            in_section = line == "[tool.omega-lint]"
            continue
        elif in_section and "=" in line:
            key, _, value = (part.strip() for part in line.partition("="))
        else:
            continue
        if value.count("[") > value.count("]"):
            continue
        try:
            section[key] = ast.literal_eval(value)
        except (SyntaxError, ValueError):
            raise ValueError(f"[tool.omega-lint] {key}: cannot parse {value!r}") from None
        key = None
    if key is not None:
        raise ValueError(f"[tool.omega-lint] {key}: unterminated list")
    return section


def load_config(pyproject: str | Path | None = None) -> LintConfig:
    """Build a :class:`LintConfig` from ``[tool.omega-lint]``.

    ``pyproject`` may be a path to a pyproject.toml or a directory to
    search upward from (defaults to the current directory). A missing
    file or section yields the defaults; unknown keys, and values that
    are not a string or a list of strings, raise ``ValueError`` so typos
    in config do not silently disable enforcement.
    """
    path = _find_pyproject(pyproject)
    if path is None:
        return LintConfig()
    text = path.read_text(encoding="utf-8")
    if tomllib is not None:
        data = tomllib.loads(text).get("tool", {}).get("omega-lint", {})
    else:
        data = _parse_toml_fallback(text)
    overrides = {}
    for key, value in data.items():
        name = _KEY_ALIASES.get(key)
        if name is None:
            raise ValueError(f"unknown [tool.omega-lint] key: {key!r}")
        values = value if isinstance(value, list) else [value]
        if not all(isinstance(item, str) for item in values):
            raise ValueError(
                f"[tool.omega-lint] {key} must be a string or a list of "
                f"strings, got {value!r}"
            )
        overrides[name] = tuple(values)
    return replace(LintConfig(), **overrides)


def _find_pyproject(start: str | Path | None) -> Path | None:
    if start is not None:
        path = Path(start)
        if path.is_file():
            return path
    else:
        path = Path.cwd()
    for candidate in [path, *path.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None
