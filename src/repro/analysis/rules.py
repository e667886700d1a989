"""The omega-lint rule catalogue.

Each rule guards one invariant the Omega reproduction's evaluation
rests on (see ``docs/STATIC_ANALYSIS.md`` for the full rationale):

======  ==============================================================
DET001  Raw RNG construction outside ``repro/sim/random.py`` breaks
        the named-stream discipline that keeps A/B workloads identical.
DET002  Wall-clock reads in simulation logic leak real time into
        simulated results.
DET003  Unordered set/dict iteration in scheduler/placement decision
        paths makes placements depend on hash order.
TXN001  Direct writes to master cell-state resource fields bypass the
        section 3.4 optimistic-commit path.
FLT001  ``==``/``!=`` on resource floats ignores the EPSILON tolerance
        the resource arithmetic is built on.
GEN001  Mutable default arguments alias state across calls.
FIJ001  Fault-injection hooks built on the wall clock or a non-forked
        RNG make chaos schedules unreplayable.
RBS001  Swallowed exceptions in recovery-critical paths (workers,
        checkpoint/artifact writes) turn crash-safety into silent
        data loss.
GLB001  ``global`` statements and module-level ``itertools.count``
        make one run's result depend on the runs before it.
======  ==============================================================

Rules receive a :class:`ModuleContext` (parsed AST with parent links,
import alias maps, and the active :class:`~repro.analysis.config.
LintConfig`) and yield :class:`~repro.analysis.diagnostics.Diagnostic`
objects. Everything here is stdlib ``ast`` — no new dependencies.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.config import LintConfig, match_path
from repro.analysis.diagnostics import Diagnostic


# ----------------------------------------------------------------------
# Module context shared by all rules
# ----------------------------------------------------------------------
@dataclass
class ModuleContext:
    """One parsed module plus everything rules need to inspect it.

    The tree is walked exactly once, at construction: ``nodes`` caches
    the full breadth-first node list so every rule iterates the same
    walk instead of re-walking (or worse, re-parsing) the module.
    """

    path: str
    tree: ast.Module
    config: LintConfig
    #: local alias -> canonical module name, for ``import numpy as np``
    #: style imports of the modules the rules care about.
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: cached breadth-first walk of ``tree`` (includes ``tree`` itself).
    nodes: list[ast.AST] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self.nodes = list(ast.walk(self.tree))
        for node in self.nodes:
            for child in ast.iter_child_nodes(node):
                child._omega_parent = node  # type: ignore[attr-defined]
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in ("numpy", "time", "datetime", "random"):
                        self.module_aliases[alias.asname or alias.name] = alias.name

    def aliases_of(self, module: str) -> set[str]:
        return {
            alias
            for alias, canonical in self.module_aliases.items()
            if canonical == module
        }


def parent(node: ast.AST) -> ast.AST | None:
    return getattr(node, "_omega_parent", None)


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def scopes(module: ModuleContext) -> list[ast.AST]:
    """The module and every function in it, enclosing scopes first."""
    return [module.tree] + [
        node
        for node in module.nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def owning_scope(node: ast.AST) -> ast.AST:
    """The nearest function or module enclosing ``node``."""
    current = parent(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
            return current
        current = parent(current)
    return node


class Rule:
    """Base class: subclasses set the class attributes and ``check``."""

    id: str = ""
    severity: str = "error"
    description: str = ""

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diagnostic(
        self, module: ModuleContext, node: ast.AST, message: str
    ) -> Diagnostic:
        return Diagnostic(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            severity=self.severity,
            message=message,
        )


# ----------------------------------------------------------------------
# DET001 — raw RNG construction/use
# ----------------------------------------------------------------------
class RawRandomRule(Rule):
    """All randomness must flow through named RandomStreams streams."""

    id = "DET001"
    description = (
        "raw RNG construction or use outside repro/sim/random.py "
        "(breaks seeded named-stream reproducibility)"
    )

    #: numpy.random attributes that are types, not entropy sources —
    #: fine to reference in annotations and isinstance checks.
    _TYPE_NAMES = frozenset({"Generator", "BitGenerator", "SeedSequence"})

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if match_path(module.path, module.config.rng_allow):
            return
        numpy_aliases = module.aliases_of("numpy")
        for node in module.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("numpy.random"):
                        yield self.diagnostic(
                            module,
                            node,
                            f"import of {alias.name!r}: draw from a named "
                            "RandomStreams stream instead of a raw RNG",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" or (
                    node.module is not None and node.module.startswith("numpy.random")
                ):
                    yield self.diagnostic(
                        module,
                        node,
                        f"import from {node.module!r}: draw from a named "
                        "RandomStreams stream instead of a raw RNG",
                    )
                elif node.module == "numpy" and any(
                    alias.name == "random" for alias in node.names
                ):
                    yield self.diagnostic(
                        module,
                        node,
                        "import of numpy.random: draw from a named "
                        "RandomStreams stream instead of a raw RNG",
                    )
            elif isinstance(node, ast.Attribute):
                dotted = dotted_name(node)
                if dotted is None:
                    continue
                head, _, rest = dotted.partition(".")
                if head not in numpy_aliases:
                    continue
                sub = rest.split(".")
                if len(sub) >= 2 and sub[0] == "random":
                    if sub[1] not in self._TYPE_NAMES:
                        yield self.diagnostic(
                            module,
                            node,
                            f"use of {head}.random.{sub[1]}: construct RNGs "
                            "only in repro/sim/random.py (RandomStreams)",
                        )
                elif rest == "random":
                    # Bare `np.random` (e.g. passed around as a module
                    # object) — unless it is the prefix of a chain we
                    # already classified above.
                    if not isinstance(parent(node), ast.Attribute):
                        yield self.diagnostic(
                            module,
                            node,
                            f"use of the {head}.random module: draw from a "
                            "named RandomStreams stream instead",
                        )


# ----------------------------------------------------------------------
# DET002 — wall-clock reads
# ----------------------------------------------------------------------
class WallClockRule(Rule):
    """Simulation logic must use simulated time, never the wall clock."""

    id = "DET002"
    description = (
        "wall-clock read outside the observability allowlist "
        "(simulated results must not depend on real time)"
    )

    _TIME_FNS = frozenset(
        {
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "process_time",
            "process_time_ns",
        }
    )
    _DATETIME_FNS = frozenset({"now", "today", "utcnow"})

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if match_path(module.path, module.config.clock_allow):
            return
        time_aliases = module.aliases_of("time")
        datetime_aliases = module.aliases_of("datetime")
        #: names bound by `from datetime import datetime/date`
        datetime_classes: set[str] = set()
        for node in module.nodes:
            if isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in self._TIME_FNS:
                            yield self.diagnostic(
                                module,
                                node,
                                f"import of time.{alias.name}: use simulated "
                                "time (Simulator.now) instead of the wall clock",
                            )
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            datetime_classes.add(alias.asname or alias.name)
        for node in module.nodes:
            if not isinstance(node, ast.Attribute):
                continue
            dotted = dotted_name(node)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if parts[0] in time_aliases and len(parts) == 2:
                if parts[1] in self._TIME_FNS:
                    yield self.diagnostic(
                        module,
                        node,
                        f"wall-clock read {dotted}: use simulated time "
                        "(Simulator.now) instead",
                    )
            elif node.attr in self._DATETIME_FNS:
                base = parts[:-1]
                if (base[0] in datetime_aliases and base[1:] in (["datetime"], ["date"])) or (
                    len(base) == 1 and base[0] in datetime_classes
                ):
                    yield self.diagnostic(
                        module,
                        node,
                        f"wall-clock read {dotted}: use simulated time "
                        "(Simulator.now) instead",
                    )


# ----------------------------------------------------------------------
# DET003 — unordered iteration in decision paths
# ----------------------------------------------------------------------
class UnorderedIterationRule(Rule):
    """Set/dict iteration order must be made explicit where it can
    influence scheduling decisions."""

    id = "DET003"
    description = (
        "iteration over a set/dict in a scheduler/placement decision "
        "path without sorted() (hash-order nondeterminism)"
    )

    _DICT_METHODS = frozenset({"keys", "values", "items"})
    #: builtins whose result does not depend on argument order, so a
    #: comprehension/generator fed straight into them is exempt.
    _ORDER_INSENSITIVE = frozenset(
        {"sorted", "sum", "min", "max", "any", "all", "len", "set", "frozenset"}
    )
    _WRAPPERS = frozenset({"list", "tuple"})

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if not match_path(module.path, module.config.decision_paths):
            return
        unordered_attrs = self._unordered_self_attrs(module)
        for scope in scopes(module):
            local_unordered = self._unordered_locals(scope)
            for node in ast.walk(scope):
                if owning_scope(node) is not scope:
                    continue
                for iter_expr, consumer in self._iteration_sites(node):
                    if consumer in self._ORDER_INSENSITIVE:
                        continue
                    why = self._unordered_reason(
                        iter_expr, local_unordered, unordered_attrs
                    )
                    if why is not None:
                        yield self.diagnostic(
                            module,
                            iter_expr,
                            f"iteration over {why} in a decision path: wrap "
                            "in sorted() to pin the order",
                        )

    # -- helpers -------------------------------------------------------
    def _iteration_sites(self, node: ast.AST) -> list[tuple[ast.expr, str | None]]:
        """(iterated expression, consuming builtin or None) pairs."""
        sites: list[tuple[ast.expr, str | None]] = []
        if isinstance(node, ast.For):
            sites.append((node.iter, None))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            consumer = None
            up = parent(node)
            if (
                isinstance(up, ast.Call)
                and isinstance(up.func, ast.Name)
                and node in up.args
            ):
                consumer = up.func.id
            for gen in node.generators:
                sites.append((gen.iter, consumer))
        return sites

    def _unordered_locals(self, scope: ast.AST) -> set[str]:
        """Names assigned a set/dict literal or constructor in ``scope``."""
        names: set[str] = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                value_unordered = self._is_unordered_literal(node.value)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if value_unordered:
                            names.add(target.id)
                        else:
                            names.discard(target.id)
        return names

    def _unordered_self_attrs(self, module: ModuleContext) -> set[str]:
        """``self.X`` attributes assigned set/dict values in ``__init__``."""
        attrs: set[str] = set()
        for node in module.nodes:
            if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                        value = sub.value
                        targets = (
                            sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                        )
                        if value is not None and self._is_unordered_literal(value):
                            for target in targets:
                                if (
                                    isinstance(target, ast.Attribute)
                                    and isinstance(target.value, ast.Name)
                                    and target.value.id == "self"
                                ):
                                    attrs.add(target.attr)
        return attrs

    def _is_unordered_literal(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.Dict, ast.SetComp, ast.DictComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset", "dict")
        return False

    def _unordered_reason(
        self,
        expr: ast.expr,
        local_unordered: set[str],
        unordered_attrs: set[str],
    ) -> str | None:
        """Why ``expr`` iterates in hash/insertion order, or None."""
        # Unwrap list()/tuple() materializations: they preserve order.
        while (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in self._WRAPPERS
            and len(expr.args) == 1
        ):
            expr = expr.args[0]
        if self._is_unordered_literal(expr):
            return "a set/dict literal"
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in self._DICT_METHODS
            and not expr.args
        ):
            return f"dict .{expr.func.attr}()"
        if isinstance(expr, ast.Name) and expr.id in local_unordered:
            return f"the set/dict {expr.id!r}"
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in unordered_attrs
        ):
            return f"the set/dict attribute self.{expr.attr}"
        return None


# ----------------------------------------------------------------------
# TXN001 — cell-state mutation outside the commit path
# ----------------------------------------------------------------------
class CellStateWriteRule(Rule):
    """Master cell state changes only through claim/release/commit."""

    id = "TXN001"
    description = (
        "write to a CellState resource field outside the transaction "
        "commit path (bypasses optimistic concurrency control)"
    )

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        config = module.config
        if match_path(module.path, config.txn_allow):
            return
        fields_guarded = set(config.resource_fields)
        # Enclosing scopes come first, so a nested function starts from
        # the aliases of the scope it closes over.
        aliases_by_scope: dict[ast.AST, dict[str, str]] = {}
        for scope in scopes(module):
            aliases_by_scope[scope] = self._field_aliases(
                scope,
                aliases_by_scope.get(owning_scope(scope), {}),
                fields_guarded,
                config,
            )
        for node in module.nodes:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            aliases = aliases_by_scope[owning_scope(node)]
            for target in targets:
                diag = self._check_target(
                    module, node, target, fields_guarded, aliases, config
                )
                if diag is not None:
                    yield diag

    def _check_target(
        self,
        module: ModuleContext,
        stmt: ast.AST,
        target: ast.expr,
        fields_guarded: set[str],
        aliases: dict[str, str],
        config: LintConfig,
    ) -> Diagnostic | None:
        # x.free_cpu = ... / x.free_cpu[i] = ... / x.free_cpu[i] -= ...
        attr = target
        if isinstance(attr, ast.Subscript):
            if isinstance(attr.value, ast.Name) and attr.value.id in aliases:
                return self.diagnostic(
                    module,
                    stmt,
                    f"write through {attr.value.id!r}, an alias of "
                    f"{aliases[attr.value.id]}: mutate cell state only via "
                    "CellState.claim/release or transaction.commit",
                )
            attr = attr.value
        if not (isinstance(attr, ast.Attribute) and attr.attr in fields_guarded):
            return None
        receiver = dotted_name(attr.value)
        if receiver is not None and self._is_scratch(receiver, config):
            return None
        if receiver == "self" and self._in_init(stmt):
            return None  # an object initializing its own fields
        shown = receiver or "<expr>"
        return self.diagnostic(
            module,
            stmt,
            f"write to {shown}.{attr.attr}: mutate cell state only via "
            "CellState.claim/release or transaction.commit",
        )

    def _field_aliases(
        self,
        scope: ast.AST,
        inherited: dict[str, str],
        fields_guarded: set[str],
        config: LintConfig,
    ) -> dict[str, str]:
        """Names bound directly to a guarded master-state array in
        ``scope`` or a scope it closes over, e.g.
        ``free = state.free_cpu`` (``.copy()`` breaks the alias)."""
        aliases = dict(inherited)
        for node in ast.walk(scope):
            if not isinstance(node, ast.Assign) or owning_scope(node) is not scope:
                continue
            value = node.value
            is_alias = (
                isinstance(value, ast.Attribute)
                and value.attr in fields_guarded
                and (
                    dotted_name(value.value) is None
                    or not self._is_scratch(dotted_name(value.value), config)
                )
            )
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if is_alias:
                        aliases[target.id] = dotted_name(value) or value.attr
                    else:
                        aliases.pop(target.id, None)
        return aliases

    def _is_scratch(self, receiver: str, config: LintConfig) -> bool:
        lowered = receiver.lower()
        return any(token in lowered for token in config.snapshot_names)

    def _in_init(self, node: ast.AST) -> bool:
        current: ast.AST | None = node
        while current is not None:
            if isinstance(current, ast.FunctionDef) and current.name == "__init__":
                return True
            current = parent(current)
        return False


# ----------------------------------------------------------------------
# FLT001 — float equality on resource quantities
# ----------------------------------------------------------------------
class ResourceFloatEqualityRule(Rule):
    """Resource arithmetic is EPSILON-tolerant; exact == is a bug."""

    id = "FLT001"
    description = (
        "==/!= on resource floats (use the EPSILON tolerance from "
        "repro.core.cellstate instead)"
    )

    _RESOURCE_RE = re.compile(
        r"(?:^|_)(cpu|mem)s?(?:_|$)|utilization|capacity|headroom|dominant_share"
    )

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        for node in module.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                if self._exempt(left) or self._exempt(right):
                    continue
                resource = next(
                    (
                        name
                        for name in (self._resource_name(left), self._resource_name(right))
                        if name is not None
                    ),
                    None,
                )
                if resource is not None:
                    yield self.diagnostic(
                        module,
                        node,
                        f"exact float comparison on {resource!r}: compare "
                        "with the EPSILON tolerance (abs(a - b) <= EPSILON)",
                    )

    def _resource_name(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Call):
            expr = expr.func
        name: str | None = None
        if isinstance(expr, ast.Attribute):
            name = expr.attr
        elif isinstance(expr, ast.Name):
            name = expr.id
        if name is not None and self._RESOURCE_RE.search(name):
            return name
        return None

    def _exempt(self, expr: ast.expr) -> bool:
        """Comparisons against str/None/bool are identity-ish, not float."""
        return isinstance(expr, ast.Constant) and (
            expr.value is None or isinstance(expr.value, (str, bool))
        )


# ----------------------------------------------------------------------
# GEN001 — mutable default arguments
# ----------------------------------------------------------------------
class MutableDefaultRule(Rule):
    """Mutable defaults are shared across calls — classic aliasing bug."""

    id = "GEN001"
    description = "mutable default argument (shared across calls)"

    _CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        for node in module.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.diagnostic(
                        module,
                        default,
                        "mutable default argument: default to None and "
                        "create the container inside the function",
                    )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self._CONSTRUCTORS
        return False


# ----------------------------------------------------------------------
# FIJ001 — nondeterministic fault-injection hooks
# ----------------------------------------------------------------------
class FaultInjectionSourceRule(Rule):
    """Fault schedules must replay: no wall clock, no self-seeded RNGs.

    Fault injectors (``repro.faults`` and the hifi failure injector) are
    only admissible in a determinism-gated simulator because every fault
    timeline is a pure function of the run's master seed: injectors
    *receive* an ``np.random.Generator`` forked from the run's
    :class:`~repro.sim.random.RandomStreams` and draw timings in
    simulated time. This rule flags the two ways that contract breaks
    inside the configured fault-injector paths:

    * constructing an entropy source locally — ``RandomStreams(...)``,
      ``np.random.default_rng(...)``/``RandomState``/bit generators, or
      any use of the stdlib ``random`` module — instead of accepting a
      forked stream from the caller;
    * reading the wall clock (``time.time``/``datetime.now`` family) to
      schedule or timestamp a fault, instead of ``Simulator.now``.

    DET001/DET002 police the same primitives repo-wide, but they honor
    broad allowlists; FIJ001 is deliberately unconditional inside fault
    injectors, where a nondeterministic hook silently invalidates every
    resilience result built on top of it.
    """

    id = "FIJ001"
    description = (
        "fault-injection hook built on the wall clock or a non-forked "
        "RNG (chaos schedules must replay from named streams)"
    )

    #: numpy.random members that create or reseed entropy sources.
    _ENTROPY_FNS = frozenset(
        {
            "default_rng",
            "seed",
            "RandomState",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "SFC64",
            "MT19937",
        }
    )
    _TIME_FNS = WallClockRule._TIME_FNS
    _DATETIME_FNS = WallClockRule._DATETIME_FNS

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if not match_path(module.path, module.config.fault_injector_paths):
            return
        time_aliases = module.aliases_of("time")
        datetime_aliases = module.aliases_of("datetime")
        random_aliases = module.aliases_of("random")
        numpy_aliases = module.aliases_of("numpy")
        datetime_classes: set[str] = set()
        for node in module.nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "datetime":
                for alias in node.names:
                    if alias.name in ("datetime", "date"):
                        datetime_classes.add(alias.asname or alias.name)
        for node in module.nodes:
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "RandomStreams":
                    yield self.diagnostic(
                        module,
                        node,
                        "fault injector constructs its own RandomStreams: "
                        "accept a stream forked from the run's master "
                        "streams (streams.fork/stream) instead",
                    )
                    continue
                if isinstance(func, ast.Attribute) and func.attr == "RandomStreams":
                    yield self.diagnostic(
                        module,
                        node,
                        "fault injector constructs its own RandomStreams: "
                        "accept a stream forked from the run's master "
                        "streams (streams.fork/stream) instead",
                    )
                    continue
            if not isinstance(node, ast.Attribute):
                continue
            dotted = dotted_name(node)
            if dotted is None:
                continue
            parts = dotted.split(".")
            head = parts[0]
            if head in numpy_aliases and len(parts) >= 3 and parts[1] == "random":
                if parts[2] in self._ENTROPY_FNS:
                    yield self.diagnostic(
                        module,
                        node,
                        f"fault injector seeds its own RNG via {dotted}: "
                        "draw from the np.random.Generator handed in by "
                        "the chaos engine instead",
                    )
            elif head in random_aliases and len(parts) == 2:
                yield self.diagnostic(
                    module,
                    node,
                    f"fault injector uses the stdlib random module "
                    f"({dotted}): draw from the forked "
                    "np.random.Generator instead",
                )
            elif head in time_aliases and len(parts) == 2 and parts[1] in self._TIME_FNS:
                yield self.diagnostic(
                    module,
                    node,
                    f"fault injector reads the wall clock ({dotted}): "
                    "schedule faults in simulated time (Simulator.now)",
                )
            elif node.attr in self._DATETIME_FNS:
                base = parts[:-1]
                if base and (
                    (
                        base[0] in datetime_aliases
                        and base[1:] in (["datetime"], ["date"])
                    )
                    or (len(base) == 1 and base[0] in datetime_classes)
                ):
                    yield self.diagnostic(
                        module,
                        node,
                        f"fault injector reads the wall clock ({dotted}): "
                        "schedule faults in simulated time (Simulator.now)",
                    )


# ----------------------------------------------------------------------
# RBS001 — swallowed exceptions in recovery-critical paths
# ----------------------------------------------------------------------
class RecoveryExceptionSwallowRule(Rule):
    """Recovery-critical code must not swallow broad exceptions.

    The crash-safety layer (:mod:`repro.recovery`) only delivers its
    guarantees if failures *surface*: a worker that catches
    ``Exception`` and returns a default row corrupts the result table
    the checkpoint was supposed to protect; an artifact writer that
    swallows an ``OSError`` mid-``fsync`` reports durability it does
    not have. Inside the configured recovery paths this rule flags any
    bare ``except:`` or ``except Exception/BaseException`` handler
    whose body does not re-raise.

    Deliberate boundaries (e.g. a worker trampoline that ships the
    exception over a pipe for the parent to re-raise) suppress the rule
    inline with a stated reason::

        except Exception as exc:  # omega-lint: disable=RBS001 -- shipped over the pipe and re-raised by the parent
    """

    id = "RBS001"
    description = (
        "bare/broad except without re-raise in a recovery-critical path "
        "(swallowed failures defeat crash-safety)"
    )

    _BROAD = frozenset({"Exception", "BaseException"})

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        if not match_path(module.path, module.config.recovery_paths):
            return
        for node in module.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = self._broad_name(node.type)
            if caught is None:
                continue
            if any(isinstance(sub, ast.Raise) for sub in ast.walk(node)):
                continue
            yield self.diagnostic(
                module,
                node,
                f"{caught} swallowed in a recovery-critical path: re-raise, "
                "narrow the except, or suppress inline with a reason",
            )

    def _broad_name(self, expr: ast.expr | None) -> str | None:
        """The flaggable handler description, or None if it is narrow."""
        if expr is None:
            return "bare except:"
        names: list[ast.expr] = (
            list(expr.elts) if isinstance(expr, ast.Tuple) else [expr]
        )
        for name in names:
            if isinstance(name, ast.Attribute):
                ident = name.attr
            elif isinstance(name, ast.Name):
                ident = name.id
            else:
                continue
            if ident in self._BROAD:
                return f"except {ident}"
        return None


# ----------------------------------------------------------------------
# GLB001 — process-wide mutable state
# ----------------------------------------------------------------------
class ModuleGlobalStateRule(Rule):
    """Per-run state belongs to an object the run creates.

    A ``global`` statement rebinds a module variable from inside a
    function, and a module-level ``itertools.count(...)`` is a counter
    every simulation in the process draws from; either way a run's
    result comes to depend on what ran before it (job ids once steered
    ``SchedulerPool`` routing that way). Ids and counters live on their
    owner — :class:`repro.world.RunContext`, a ledger, an allocator.
    The process-wide observers that remain suppress the rule inline,
    each saying why it is ambient.
    """

    id = "GLB001"
    description = (
        "global statement or module-level itertools.count "
        "(process-wide mutable state leaks between runs)"
    )

    def check(self, module: ModuleContext) -> Iterator[Diagnostic]:
        counters: set[str] = set()
        for node in module.nodes:
            if isinstance(node, ast.Import):
                counters.update(
                    f"{alias.asname or alias.name}.count"
                    for alias in node.names
                    if alias.name == "itertools"
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "itertools":
                counters.update(
                    alias.asname or alias.name
                    for alias in node.names
                    if alias.name == "count"
                )
            elif isinstance(node, ast.Global):
                yield self.diagnostic(
                    module,
                    node,
                    f"global {', '.join(node.names)}: keep the state on an "
                    "object the run creates and pass it",
                )
        for statement in module.tree.body:
            if not isinstance(statement, (ast.Assign, ast.AnnAssign)):
                continue
            value = statement.value
            if isinstance(value, ast.Call) and dotted_name(value.func) in counters:
                yield self.diagnostic(
                    module,
                    statement,
                    "module-level itertools.count: number things from "
                    "their owner (one counter per run, ledger, allocator)",
                )


#: Every shipped rule, in catalogue order.
ALL_RULES: tuple[Rule, ...] = (
    RawRandomRule(),
    WallClockRule(),
    UnorderedIterationRule(),
    CellStateWriteRule(),
    ResourceFloatEqualityRule(),
    MutableDefaultRule(),
    FaultInjectionSourceRule(),
    RecoveryExceptionSwallowRule(),
    ModuleGlobalStateRule(),
)

RULES_BY_ID: dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}
