"""The source invariants the paper's results rest on, checked on the AST.

Both simulators must be deterministic: every draw comes from a named
``RandomStreams`` stream, no decision reads the wall clock or iterates
in hash order, and no process-wide state carries one run into the next.
Every write to shared cell state goes through the section 3.4
optimistic commit, resource quantities are never compared with ``==``,
and a failure in a crash-safety path is never swallowed.

Each check takes a parsed module and returns the lines that break its
invariant; :data:`SCOPE` says which files under ``src/`` it reads. One
test walks ``src/repro`` and accepts only the sites in :data:`KNOWN`,
each with its reason, and narrower walks pin the fault injectors, the
crash-safety paths and the process-wide state; the snippet tests show
what each check flags. Two last checks keep out what only tests reach:
every run-config field must be set somewhere outside tests, and every
function and class must be named somewhere outside tests and examples.
"""

import ast
import dataclasses
import importlib
import io
import re
import textwrap
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The one module that builds RNGs (``RandomStreams``).
RNG_HOME = ("repro/sim/random.py",)
#: The modules that may read the wall clock: tracing, the engine's
#: profiler, and the sweep runner, whose point timeouts are real time
#: by definition.
CLOCK_READERS = ("repro/obs/", "repro/sim/engine.py", "repro/recovery/")
#: Where an unordered iteration can steer a placement or a route.
DECISION_PATHS = (
    "repro/schedulers/", "repro/core/", "repro/hifi/", "repro/mapreduce/",
    "repro/faults/", "repro/invariants.py", "repro/federation/",
)
#: Fault injectors: their schedules replay only from streams forked off
#: the run's master ``RandomStreams``.
FAULT_INJECTORS = (
    "repro/faults/", "repro/core/retry.py", "repro/invariants.py", "repro/federation/",
)
#: Crash-safety paths: workers, checkpoint and artifact writers.
RECOVERY_PATHS = (
    "repro/recovery/", "repro/experiments/io.py", "repro/obs/export.py", "repro/federation/",
)
#: The section 3.4 commit path, the only writer of master cell state.
COMMIT_PATH = ("repro/core/cellstate.py", "repro/core/transaction.py")
#: The guarded ``CellState`` fields.
CELL_FIELDS = frozenset({"free_cpu", "free_mem", "seq"})
#: A receiver whose name holds one of these is a private scratch copy
#: (a snapshot, a Mesos offer, a plan view), free to mutate.
SCRATCH_NAMES = ("snapshot", "snap", "offer", "plan")

RAW_RNG = re.compile(r"(numpy\.)?random(\.|$)")
RNG_TYPES = frozenset({"Generator", "BitGenerator", "SeedSequence"})
CLOCKS = ("time", "monotonic", "perf_counter", "process_time")
CLOCK_READS = frozenset(f"{clock}{ns}" for clock in CLOCKS for ns in ("", "_ns"))
DATE_KINDS = ("datetime", "date")
DATE_READS = frozenset({"now", "today", "utcnow"})
#: Consumers whose result does not depend on the order they are fed.
ORDER_FREE = frozenset({"sorted", "sum", "min", "max", "any", "all", "len", "set", "frozenset"})
RESOURCE_NAME = re.compile(r"(^|_)(cpu|mem)s?(_|$)|utilization|capacity|headroom|dominant_share")
BROAD = frozenset({"Exception", "BaseException"})
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def parse(source: str) -> ast.Module:
    """``source`` parsed, each node linked to its ``parent``."""
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node
    return tree


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def imported_as(tree: ast.Module, module: str) -> set[str]:
    """The names ``import module [as name]`` binds."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == module
    }


def owning_scope(node: ast.AST) -> ast.AST:
    """The nearest function or module around ``node``."""
    current = getattr(node, "parent", None)
    while current is not None and not isinstance(current, (*FUNCTIONS, ast.Module)):
        current = current.parent
    return node if current is None else current


def scopes(tree: ast.Module) -> list[ast.AST]:
    """The module and every function in it, enclosing scopes first."""
    return [tree, *(node for node in ast.walk(tree) if isinstance(node, FUNCTIONS))]


def is_unordered(node: ast.AST) -> bool:
    """A set or dict literal, comprehension or constructor call."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset", "dict")
    return isinstance(node, (ast.Set, ast.Dict, ast.SetComp, ast.DictComp))


def name_of(node: ast.AST) -> str | None:
    """The identifier a Name or Attribute ends in."""
    return getattr(node, "attr", None) or getattr(node, "id", None)


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------
def raw_rng(tree: ast.Module) -> list[int]:
    """Imports and uses of ``random`` or ``numpy.random``: every draw
    comes from a named ``RandomStreams`` stream, so A/B workloads match.
    The ``numpy.random`` types stay usable in annotations."""
    numpy_random = {f"{numpy}.random" for numpy in imported_as(tree, "numpy")}

    def raw(node: ast.AST) -> bool:
        if isinstance(node, ast.Import):
            return any(RAW_RNG.match(alias.name) for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return any(RAW_RNG.match(f"{node.module}.{alias.name}") for alias in node.names)
        return dotted(node) in numpy_random and name_of(node.parent) not in RNG_TYPES

    return [node.lineno for node in ast.walk(tree) if raw(node)]


def wall_clock(tree: ast.Module) -> list[int]:
    """Reads of the wall clock: simulated results use ``Simulator.now``."""
    clocks = {f"{time}.{read}" for time in imported_as(tree, "time") for read in CLOCK_READS}
    dates = {f"{module}.{kind}" for module in imported_as(tree, "datetime") for kind in DATE_KINDS}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            lines += [node.lineno for alias in node.names if alias.name in CLOCK_READS]
        elif isinstance(node, ast.ImportFrom) and node.module == "datetime":
            dates |= {a.asname or a.name for a in node.names if a.name in DATE_KINDS}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
            dotted(node) in clocks or (dotted(node.value) in dates and node.attr in DATE_READS)
        ):
            lines.append(node.lineno)
    return lines


def unordered_iteration(tree: ast.Module) -> list[int]:
    """Loops and comprehensions over a set or dict whose order is not
    pinned by ``sorted()`` or an order-free consumer: a placement must
    not depend on hash order."""
    unordered_attrs = {
        target.attr
        for init in ast.walk(tree)
        if isinstance(init, ast.FunctionDef) and init.name == "__init__"
        for node in ast.walk(init)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and is_unordered(node.value)
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute) and dotted(target.value) == "self"
    }

    def unordered(expr: ast.expr, names: set[str]) -> bool:
        # list() and tuple() keep the order they are given.
        while isinstance(expr, ast.Call) and len(expr.args) == 1 and (
            getattr(expr.func, "id", None) in ("list", "tuple")
        ):
            expr = expr.args[0]
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            return expr.func.attr in ("keys", "values", "items") and not expr.args
        if isinstance(expr, ast.Name):
            return expr.id in names
        if isinstance(expr, ast.Attribute) and dotted(expr.value) == "self":
            return expr.attr in unordered_attrs
        return is_unordered(expr)

    lines = []
    for scope in scopes(tree):
        names = set()
        for node in ast.walk(scope):
            for target in node.targets if isinstance(node, ast.Assign) else []:
                if isinstance(target, ast.Name):
                    (names.add if is_unordered(node.value) else names.discard)(target.id)
        for node in ast.walk(scope):
            if owning_scope(node) is not scope:
                continue
            if isinstance(node, ast.For):
                iterated = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                consumer = node.parent
                if isinstance(consumer, ast.Call) and node in consumer.args and (
                    isinstance(consumer.func, ast.Name) and consumer.func.id in ORDER_FREE
                ):
                    continue
                iterated = [generator.iter for generator in node.generators]
            else:
                continue
            lines += [expr.lineno for expr in iterated if unordered(expr, names)]
    return lines


def cell_state_write(tree: ast.Module) -> list[int]:
    """Writes to a ``CellState`` field, directly or through a local
    alias of its array (``free = state.free_cpu; free[m] = 0``): master
    state changes only through the optimistic commit. An alias reaches
    the functions nested in its scope; ``.copy()`` breaks it."""

    def scratch(receiver: str | None) -> bool:
        return receiver is not None and any(name in receiver.lower() for name in SCRATCH_NAMES)

    aliases: dict[ast.AST, set[str]] = {}
    for scope in scopes(tree):
        names = set(aliases.get(owning_scope(scope), ()))
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and owning_scope(node) is scope:
                value = node.value
                is_alias = isinstance(value, ast.Attribute) and value.attr in CELL_FIELDS
                is_alias = is_alias and not scratch(dotted(value.value))
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        (names.add if is_alias else names.discard)(target.id)
        aliases[scope] = names
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = node.targets if isinstance(node, ast.Assign) else []
        for target in targets:
            if isinstance(target, ast.Subscript):
                if getattr(target.value, "id", None) in aliases[owning_scope(node)]:
                    lines.append(node.lineno)
                    continue
                target = target.value
            if not (isinstance(target, ast.Attribute) and target.attr in CELL_FIELDS):
                continue
            receiver = dotted(target.value)
            if scratch(receiver) or (receiver == "self" and in_init(node)):
                continue  # a scratch copy, or an object setting up its own fields
            lines.append(node.lineno)
    return lines


def in_init(node: ast.AST | None) -> bool:
    while node is not None:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            return True
        node = getattr(node, "parent", None)
    return False


def resource_equality(tree: ast.Module) -> list[int]:
    """``==`` / ``!=`` on a resource quantity: resource arithmetic is
    EPSILON-tolerant, so exact float equality is a bug."""

    def resource(expr: ast.expr) -> bool:
        name = name_of(expr.func if isinstance(expr, ast.Call) else expr)
        return name is not None and RESOURCE_NAME.search(name) is not None

    def exempt(expr: ast.expr) -> bool:
        return isinstance(expr, ast.Constant) and isinstance(expr.value, (str, bool, type(None)))

    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if (
                isinstance(op, (ast.Eq, ast.NotEq))
                and not (exempt(left) or exempt(right))
                and (resource(left) or resource(right))
            ):
                lines.append(node.lineno)
    return lines


def swallowed_exception(tree: ast.Module) -> list[int]:
    """Bare or broad ``except`` handlers that do not re-raise: in a
    crash-safety path a swallowed failure is silent data loss."""

    def broad(caught: ast.expr | None) -> bool:
        names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
        return caught is None or any(name_of(name) in BROAD for name in names)

    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and broad(node.type)
        and not any(isinstance(sub, ast.Raise) for sub in ast.walk(node))
    ]


def process_wide_state(tree: ast.Module) -> list[int]:
    """``global`` statements and module-level ``itertools.count``: one
    run's result must not depend on the runs before it. Ids and counters
    live on their owner (``RunContext``, a ledger, an allocator)."""
    counters = {f"{itertools}.count" for itertools in imported_as(tree, "itertools")}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            counters |= {alias.asname or "count" for alias in node.names if alias.name == "count"}
        elif isinstance(node, ast.Global):
            lines.append(node.lineno)
    for statement in tree.body:
        value = getattr(statement, "value", None)
        if (
            isinstance(statement, (ast.Assign, ast.AnnAssign))
            and isinstance(value, ast.Call)
            and dotted(value.func) in counters
        ):
            lines.append(statement.lineno)
    return lines


def own_random_streams(tree: ast.Module) -> list[int]:
    """A ``RandomStreams`` built in a fault injector: a chaos schedule
    replays only from a stream forked off the run's master streams."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and name_of(node.func) == "RandomStreams"
    ]


#: Each check -> (the path prefixes under ``src/`` it reads, the ones
#: it skips).
EVERYWHERE = ("repro/",)
SCOPE = {
    raw_rng: (EVERYWHERE, RNG_HOME),
    wall_clock: (EVERYWHERE, CLOCK_READERS),
    unordered_iteration: (DECISION_PATHS, ()),
    cell_state_write: (EVERYWHERE, COMMIT_PATH),
    resource_equality: (EVERYWHERE, ()),
    swallowed_exception: (RECOVERY_PATHS, ()),
    process_wide_state: (EVERYWHERE, ()),
    own_random_streams: (FAULT_INJECTORS, ()),
}


def applies(check, path: str) -> bool:
    read, skipped = SCOPE[check]
    return path.startswith(read) and not path.startswith(skipped)


#: The only sites under ``src/`` that break a check, as (check, file,
#: function), each with the reason it stands (also a comment there).
KNOWN = {
    ("swallowed_exception", "repro/recovery/runner.py", "_encode_error"): (
        "picklability probe; the original failure is preserved in the summary re-raised by "
        "the parent"
    ),
    ("swallowed_exception", "repro/recovery/runner.py", "_child_main"): (
        "worker boundary: the failure crosses the pipe and is re-raised by execute_map in "
        "the parent"
    ),
}


def enclosing_function(tree: ast.Module, line: int) -> str:
    """The name of the innermost function holding ``line``."""
    holders = [
        node
        for node in ast.walk(tree)
        if isinstance(node, FUNCTIONS) and node.lineno <= line <= node.end_lineno
    ]
    return max(holders, key=lambda node: node.lineno).name if holders else "<module>"


def violations(under: tuple[str, ...] = EVERYWHERE) -> list[tuple[str, str, str, int]]:
    """(check, file, function, line) for every site in the files under
    ``src/`` whose paths start with one of ``under``."""
    found = []
    for file in sorted((SRC / "repro").rglob("*.py")):
        path = file.relative_to(SRC).as_posix()
        if not path.startswith(under):
            continue
        tree = parse(file.read_text(encoding="utf-8"))
        for check in SCOPE:
            if applies(check, path):
                found += [
                    (check.__name__, path, enclosing_function(tree, line), line)
                    for line in check(tree)
                ]
    return found


def test_src_breaks_no_invariant_but_the_known_sites():
    found = violations()
    unexpected = [
        f"src/{path}:{line}: {check}"
        for check, path, function, line in found
        if (check, path, function) not in KNOWN
    ]
    assert unexpected == []
    assert sorted(site[:3] for site in found) == sorted(KNOWN)


def known_sites(check: str | None = None, under: tuple[str, ...] = EVERYWHERE) -> list:
    """The :data:`KNOWN` sites of ``check`` (or of all checks) under ``under``."""
    return sorted(
        site for site in KNOWN if check in (None, site[0]) and site[1].startswith(under)
    )


def test_fault_injectors_are_clean():
    assert violations(FAULT_INJECTORS) == []


def test_recovery_paths_break_only_the_worker_boundary():
    found = sorted(site[:3] for site in violations(RECOVERY_PATHS))
    assert found == known_sites(under=RECOVERY_PATHS)
    assert {path for _, path, _ in found} == {"repro/recovery/runner.py"}


def test_no_process_wide_state():
    """Every mutable lives on its run or an owner, the trace recorder
    included (``RunContext(recorder=...)``): no site stands."""
    assert [site for site in violations() if site[0] == "process_wide_state"] == []
    assert known_sites("process_wide_state") == []


def test_no_global_statement():
    found = [
        (file.relative_to(SRC).as_posix(), node.names)
        for file in sorted((SRC / "repro").rglob("*.py"))
        for node in ast.walk(ast.parse(file.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert found == []


NP = "import numpy as np\n"
TRY = "try:\n    f()\nexcept"


def fault_case(name: str, source: str, *lines: int):
    return pytest.param(source, list(lines), id=name)


@pytest.mark.parametrize(
    "source, lines",
    [
        fault_case("default_rng", NP + "def schedule():\n    return np.random.default_rng(0)", 3),
        fault_case("stdlib_random", "import random\ndef gap():\n    return random.random()", 1),
        fault_case("wall_clock", "import time\ndef stamp():\n    return time.time()", 3),
        fault_case("datetime_now",
                   "import datetime\ndef stamp():\n    return datetime.datetime.now()", 3),
    ],
)
def test_fault_injectors_flag(source, lines):
    """A fault injector that seeds its own RNG or reads the wall clock
    is caught by ``raw_rng`` or ``wall_clock``: neither skips one."""
    tree = parse(source)
    for prefix in FAULT_INJECTORS:
        path = prefix if prefix.endswith(".py") else prefix + "x.py"
        flagged = sorted(line for check in SCOPE if applies(check, path) for line in check(tree))
        assert flagged == lines, path


@pytest.mark.parametrize(
    "check, path, read",
    [
        (raw_rng, "repro/sim/random.py", False),
        (raw_rng, "repro/core/example.py", True),
        (wall_clock, "repro/obs/recorder.py", False),
        (wall_clock, "repro/sim/engine.py", False),
        (wall_clock, "repro/recovery/runner.py", False),
        (wall_clock, "repro/sim/simulator.py", True),
        (unordered_iteration, "repro/core/example.py", True),
        (unordered_iteration, "repro/federation/router.py", True),
        (unordered_iteration, "repro/experiments/report.py", False),
        (cell_state_write, "repro/core/cellstate.py", False),
        (cell_state_write, "repro/core/transaction.py", False),
        (cell_state_write, "repro/schedulers/omega.py", True),
        (swallowed_exception, "repro/recovery/checkpoint.py", True),
        (swallowed_exception, "repro/experiments/io.py", True),
        (swallowed_exception, "repro/obs/export.py", True),
        (swallowed_exception, "repro/core/example.py", False),
        (own_random_streams, "repro/faults/chaos.py", True),
        (own_random_streams, "repro/core/retry.py", True),
        (own_random_streams, "repro/core/example.py", False),
    ],
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_scope(check, path, read):
    assert applies(check, path) is read


def case(check, name: str, source: str, *lines: int):
    return pytest.param(check, source, list(lines), id=f"{check.__name__}-{name}")


CASES = [
    case(raw_rng, "import_random", "import random", 1),
    case(raw_rng, "from_random_import", "from random import choice", 1),
    case(raw_rng, "import_numpy_random", "import numpy.random", 1),
    case(raw_rng, "from_numpy_import_random", "from numpy import random", 1),
    case(raw_rng, "default_rng", NP + "rng = np.random.default_rng(42)", 2),
    case(raw_rng, "np_random_seed", NP + "np.random.seed(0)", 2),
    case(raw_rng, "module_level_functions", "import numpy\nx = numpy.random.rand(3)", 2),
    case(raw_rng, "bare_np_random_reference", NP + "module = np.random", 2),
    case(raw_rng, "generator_annotation", NP + "def f(rng: np.random.Generator): ..."),
    case(raw_rng, "seed_sequence_type", NP + "kind = np.random.SeedSequence"),
    case(wall_clock, "time_time", "import time\nnow = time.time()", 2),
    case(wall_clock, "aliased_import", "import time as _time\nstart = _time.perf_counter()", 2),
    case(wall_clock, "from_time_import", "from time import monotonic", 1),
    case(wall_clock, "datetime_now", "import datetime\nstamp = datetime.datetime.now()", 2),
    case(wall_clock, "from_datetime_import_now",
         "from datetime import datetime\ndatetime.now()", 2),
    case(wall_clock, "simulated_time", "def callback(sim):\n    return sim.now"),
    case(wall_clock, "time_sleep", "import time\ntime.sleep(1)"),
    case(unordered_iteration, "dict_items_for_loop", "def f(d):\n    for j in d.items(): ...", 2),
    case(unordered_iteration, "set_literal", "def f():\n    for m in {3, 1, 2}: ...", 2),
    case(unordered_iteration, "local_set_variable",
         "def f(x):\n    s = set(x)\n    for m in s: ...", 3),
    case(
        unordered_iteration,
        "self_attribute_set",
        "class S:\n    def __init__(self):\n        self.blocked = set()\n"
        "    def pick(self):\n        for m in self.blocked: ...",
        5,
    ),
    case(unordered_iteration, "list_wrapper", "def f(d):\n    for row in list(d.values()): ...", 2),
    case(unordered_iteration, "comprehension", "def f(d):\n    return [r for r in d.values()]", 2),
    case(unordered_iteration, "sorted", "def f(d):\n    for j in sorted(d.items()): ..."),
    case(unordered_iteration, "order_free_consumer",
         "def f(d):\n    return sum(c for c in d.values())"),
    case(unordered_iteration, "list_iteration", "def f(machines):\n    for m in machines: ..."),
    case(cell_state_write, "direct_subscript_write",
         "def f(state):\n    state.free_cpu[0] -= 1", 2),
    case(cell_state_write, "write_in_a_function_reported_once",
         "def poke(state):\n    state.free_cpu[0] = 1.0", 2),
    case(cell_state_write, "attribute_write", "def f(state, free):\n    state.free_mem = free", 2),
    case(cell_state_write, "sequence_bump", "def f(self, m):\n    self.state.seq[m] += 1", 2),
    case(cell_state_write, "aliased_array_write",
         "def f(s):\n    free = s.free_cpu\n    free[0] = 0", 3),
    case(
        cell_state_write,
        "alias_reaches_a_nested_function",
        "def f(state):\n    free = state.free_cpu\n    def inner():\n        free[0] = 0.0",
        4,
    ),
    case(
        cell_state_write,
        "alias_does_not_leak_into_a_sibling_function",
        "def keep(state):\n    free = state.free_cpu\ndef scratch(free):\n    free[0] = 0.0",
    ),
    case(cell_state_write, "snapshot_write", "def f(snapshot, m):\n    snapshot.free_cpu[m] = 0.0"),
    case(cell_state_write, "copy_breaks_alias",
         "def f(s):\n    free = s.free_cpu.copy()\n    free[0] = 0"),
    case(cell_state_write, "own_init",
         "class Offer:\n    def __init__(self, c):\n        self.free_cpu = c"),
    case(cell_state_write, "read", "def f(state, m):\n    return state.free_cpu[m]"),
    case(resource_equality, "eq_on_cpu", "ok = job.cpu_per_task == 0", 1),
    case(resource_equality, "neq_on_free_mem", "ok = a.free_mem != b.free_mem", 1),
    case(resource_equality, "utilization", "ok = state.cpu_utilization == 1.0", 1),
    case(resource_equality, "need_is_zero", "done = need_cpu == 0.0 and need_mem == 0.0", 1, 1),
    case(resource_equality, "epsilon_comparison", "ok = abs(a.free_cpu - b.free_cpu) <= EPSILON"),
    case(resource_equality, "string_comparison", 'ok = policy.cpu_mode == "strict"'),
    case(resource_equality, "non_resource_identifiers", "ok = ok == claim.count"),
    case(resource_equality, "none_comparison", "ok = limits.max_cpu == None"),
    case(swallowed_exception, "bare_except", TRY + ":\n    pass", 3),
    case(swallowed_exception, "broad_except_without_reraise", TRY + " Exception:\n    pass", 3),
    case(swallowed_exception, "base_exception", TRY + " BaseException:\n    pass", 3),
    case(swallowed_exception, "tuple_containing_broad", TRY + " (ValueError, Exception): 0", 3),
    case(swallowed_exception, "narrow_except", TRY + " (OSError, ValueError):\n    pass"),
    case(swallowed_exception, "reraise", TRY + " Exception as e:\n    raise RuntimeError() from e"),
    case(swallowed_exception, "nested_reraise", TRY + " Exception:\n    if strict:\n        raise"),
    case(process_wide_state, "global_statement",
         "def next_id():\n    global _ids\n    _ids += 1", 2),
    case(process_wide_state, "module_level_counter",
         "import itertools\nids = itertools.count(1)", 2),
    case(
        process_wide_state,
        "imported_and_aliased_counters",
        "import itertools as it\nfrom itertools import count\na: object = count()\nb = it.count()",
        3,
        4,
    ),
    case(
        process_wide_state,
        "counter_owned_by_an_object",
        "import itertools\nclass Ledger:\n    def __init__(s):\n        s.n = itertools.count()",
    ),
    case(process_wide_state, "other_module_level_calls",
         "import itertools\nP = list(itertools.repeat(1, 2))"),
    case(own_random_streams, "randomstreams_construction",
         "rng = RandomStreams(7).stream('chaos')", 1),
    case(own_random_streams, "qualified_construction",
         "import repro.sim\ns = repro.sim.RandomStreams(7)", 2),
    case(own_random_streams, "forked_stream_parameter",
         "class Injector:\n    def __init__(self, rng): ..."),
]


@pytest.mark.parametrize("check, source, lines", CASES)
def test_check(check, source, lines):
    assert check(parse(source)) == lines


# ----------------------------------------------------------------------
# No run-config knob with a single value
# ----------------------------------------------------------------------
#: The run configs whose every field some command, ``bench/`` workload
#: or sibling layer sets: ``module:Class``.
CONFIGS = (
    "repro.experiments.common:LightweightConfig",
    "repro.hifi.replay:HighFidelityConfig",
    "repro.federation.config:FederationConfig",
    "repro.federation.config:FederationFaultConfig",
    "repro.faults.chaos:FaultConfig",
    "repro.core.retry:RetryPolicyConfig",
)
BENCH = SRC.parent / "bench"


def set_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) for every keyword argument, attribute write and
    string literal in ``tree``: the ways a field gets a value (a string
    names it for ``replace``, ``setattr`` or a swept ``field=``)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg is not None:
            found.append((node.arg, node.value.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append((node.value, node.lineno))
    return found


def unset_config_fields() -> list[str]:
    """``Class.field`` for every field of :data:`CONFIGS` that nothing
    under ``src/`` or ``bench/`` sets outside the field's own class."""
    classes = {}
    for spec in CONFIGS:
        module_name, name = spec.split(":")
        module = importlib.import_module(module_name)
        path = Path(module.__file__).resolve().relative_to(SRC).as_posix()
        classes[name] = (path, [field.name for field in dataclasses.fields(getattr(module, name))])
    set_where: dict[str, list[tuple[str, int]]] = {}
    own_lines: dict[str, range] = {}
    for file in [*sorted((SRC / "repro").rglob("*.py")), *sorted(BENCH.glob("*.py"))]:
        path = file.relative_to(SRC if file.is_relative_to(SRC) else SRC.parent).as_posix()
        tree = ast.parse(file.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and classes.get(node.name, ("",))[0] == path:
                own_lines[node.name] = range(node.lineno, node.end_lineno + 1)
        for name, line in set_names(tree):
            set_where.setdefault(name, []).append((path, line))
    return [
        f"{name}.{field}"
        for name, (home, fields) in classes.items()
        for field in fields
        if not any(
            path != home or line not in own_lines[name]
            for path, line in set_where.get(field, ())
        )
    ]


def test_every_config_field_is_set_outside_tests():
    """A field only tests set has one value in every run: it is a
    constant, not a knob."""
    assert unset_config_fields() == []


def test_set_names_sees_keywords_attribute_writes_and_strings():
    tree = parse("f(a=1)\nx.b = 2\ny.c += 3\nsweep(field='d')\nz = e.g\n")
    assert sorted(set_names(tree)) == [("a", 1), ("b", 2), ("c", 3), ("d", 4), ("field", 4)]


# ----------------------------------------------------------------------
# No function or class that only tests and examples call
# ----------------------------------------------------------------------
#: Where naming a definition keeps it: the program, its benchmark and
#: the paper-shape suite. Tests and examples do not count.
USERS = ("src", "bench", "benchmarks")

#: ``module:qualname`` of each definition under ``src/repro`` that only
#: tests and examples name, with the reason it stays.
UNCALLED = {
    "repro.cluster.cell:Cell.heterogeneous": (
        "builds the attribute-carrying cells the scoring-placement and cell-state oracle "
        "tests run on"
    ),
    "repro.metrics.collector:MetricsCollector.median_conflict_fraction": (
        "the paper's median of daily values; ROADMAP 10(d) decides whether the conflict_* "
        "columns become it"
    ),
    "repro.metrics.collector:MetricsCollector.overall_conflict_fraction": (
        "the collector-side figure tests/obs/test_trace_smoke.py checks the trace's "
        "conflict fraction against"
    ),
    "repro.schedulers.base:QueueScheduler.is_busy": (
        "a read of _busy, which only schedulers/base.py may touch, for the tests that probe it"
    ),
    "repro.workload.job:Job.placed_tasks": (
        "Job API that the canary plan of examples/custom_scheduler.py reads"
    ),
}


def named_words(source: str) -> list[tuple[str, int]]:
    """(word, line) for every identifier-like word of ``source`` outside
    comments and docstrings: names, attributes, and the words of other
    string literals (a string can name a function for ``getattr``)."""
    tree = ast.parse(source)
    docstrings = {
        (node.value.lineno, node.value.col_offset)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }
    found = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT or (
            token.type == tokenize.STRING and token.start in docstrings
        ):
            continue
        found.extend((word, token.start[0]) for word in re.findall(r"\w+", token.string))
    return found


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(qualname, node) for every function and class in ``tree`` but
    the dunders, which Python calls by protocol."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*FUNCTIONS, ast.ClassDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found.append((prefix + child.name, child))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def unnamed_definitions() -> list[str]:
    """``module:qualname`` for every definition under ``src/repro``
    whose name appears nowhere in :data:`USERS` outside its own
    definition (decorators and body included)."""
    where: dict[str, list[tuple[Path, int]]] = {}
    for top in USERS:
        for file in sorted((SRC.parent / top).rglob("*.py")):
            for word, line in named_words(file.read_text(encoding="utf-8")):
                where.setdefault(word, []).append((file, line))
    unnamed = []
    for file in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(file.relative_to(SRC).with_suffix("").parts)
        for qualname, node in definitions(ast.parse(file.read_text(encoding="utf-8"))):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            own = range(first, node.end_lineno + 1)
            if not any(path != file or line not in own for path, line in where.get(node.name, ())):
                unnamed.append(f"{module}:{qualname}")
    return unnamed


def test_every_definition_is_named_outside_tests():
    """Code only tests and examples call is not part of the program:
    delete it, or list it in :data:`UNCALLED` with the reason it stays."""
    assert sorted(unnamed_definitions()) == sorted(UNCALLED)


def test_named_words_skip_comments_and_docstrings_only():
    source = textwrap.dedent('''\
        """a module docstring names doc_only"""
        def f():
            """so does a function's: doc_only"""
            g(x.attr)  # comment_only
            return getattr(obj, "in_string") or f"{in_fstring}"
    ''')
    words = {word for word, _ in named_words(source)}
    assert {"f", "g", "x", "attr", "getattr", "in_string", "in_fstring"} <= words
    assert not {"doc_only", "comment_only"} & words


def test_definitions_are_qualified_and_skip_dunders():
    tree = ast.parse(
        "class A:\n    def __init__(self): ...\n    def m(self):\n        def inner(): ...\n"
    )
    assert [name for name, _ in definitions(tree)] == ["A", "A.m", "A.m.inner"]
