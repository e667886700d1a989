"""Positive and negative cases for every omega-lint rule."""

import textwrap

from repro.analysis.config import LintConfig
from repro.analysis.engine import lint_source


def lint(source: str, path: str = "repro/core/example.py", **config_kwargs):
    config = LintConfig(**config_kwargs)
    return lint_source(textwrap.dedent(source), path=path, config=config)


def rules_of(findings):
    return [diag.rule for diag in findings]


# ----------------------------------------------------------------------
# DET001 — raw RNG construction/use
# ----------------------------------------------------------------------
class TestDET001:
    def test_import_random_flagged(self):
        assert rules_of(lint("import random\n")) == ["DET001"]

    def test_from_random_import_flagged(self):
        assert rules_of(lint("from random import choice\n")) == ["DET001"]

    def test_default_rng_flagged(self):
        source = """
            import numpy as np
            rng = np.random.default_rng(42)
        """
        assert "DET001" in rules_of(lint(source))

    def test_np_random_seed_flagged(self):
        source = """
            import numpy as np
            np.random.seed(0)
        """
        assert "DET001" in rules_of(lint(source))

    def test_module_level_functions_flagged(self):
        source = """
            import numpy
            x = numpy.random.rand(3)
        """
        assert "DET001" in rules_of(lint(source))

    def test_bare_np_random_reference_flagged(self):
        source = """
            import numpy as np
            module = np.random
        """
        assert "DET001" in rules_of(lint(source))

    def test_generator_annotation_not_flagged(self):
        source = """
            import numpy as np

            def sample(rng: np.random.Generator) -> float:
                return rng.random()
        """
        assert lint(source) == []

    def test_allowlisted_module_not_flagged(self):
        source = """
            import numpy as np
            rng = np.random.default_rng(0)
        """
        assert lint(source, path="repro/sim/random.py") == []

    def test_seed_sequence_type_not_flagged(self):
        source = """
            import numpy as np
            kind = np.random.SeedSequence
        """
        assert lint(source) == []


# ----------------------------------------------------------------------
# DET002 — wall-clock reads
# ----------------------------------------------------------------------
class TestDET002:
    def test_time_time_flagged(self):
        source = """
            import time
            now = time.time()
        """
        assert "DET002" in rules_of(lint(source))

    def test_aliased_import_flagged(self):
        source = """
            import time as _time
            start = _time.perf_counter()
        """
        assert "DET002" in rules_of(lint(source))

    def test_from_time_import_flagged(self):
        assert "DET002" in rules_of(lint("from time import monotonic\n"))

    def test_datetime_now_flagged(self):
        source = """
            import datetime
            stamp = datetime.datetime.now()
        """
        assert "DET002" in rules_of(lint(source))

    def test_from_datetime_import_now_flagged(self):
        source = """
            from datetime import datetime
            stamp = datetime.now()
        """
        assert "DET002" in rules_of(lint(source))

    def test_simulated_time_not_flagged(self):
        source = """
            def callback(sim):
                return sim.now
        """
        assert lint(source) == []

    def test_allowlisted_module_not_flagged(self):
        source = """
            import time
            start = time.perf_counter()
        """
        assert lint(source, path="repro/obs/recorder.py") == []

    def test_time_sleep_not_flagged(self):
        source = """
            import time
            time.sleep(1)
        """
        assert lint(source) == []


# ----------------------------------------------------------------------
# DET003 — unordered iteration in decision paths
# ----------------------------------------------------------------------
class TestDET003:
    def test_dict_items_for_loop_flagged(self):
        source = """
            def place(pending):
                for job, count in pending.items():
                    launch(job, count)
        """
        assert "DET003" in rules_of(lint(source))

    def test_set_literal_flagged(self):
        source = """
            def pick():
                for machine in {3, 1, 2}:
                    yield machine
        """
        assert "DET003" in rules_of(lint(source))

    def test_local_set_variable_flagged(self):
        source = """
            def pick(candidates):
                hot = set(candidates)
                for machine in hot:
                    yield machine
        """
        assert "DET003" in rules_of(lint(source))

    def test_self_attribute_set_flagged(self):
        source = """
            class Scheduler:
                def __init__(self):
                    self.blocked = set()

                def pick(self):
                    for machine in self.blocked:
                        yield machine
        """
        assert "DET003" in rules_of(lint(source))

    def test_list_wrapper_still_flagged(self):
        source = """
            def pick(table):
                for row in list(table.values()):
                    yield row
        """
        assert "DET003" in rules_of(lint(source))

    def test_sorted_not_flagged(self):
        source = """
            def place(pending):
                for job, count in sorted(pending.items()):
                    launch(job, count)
        """
        assert lint(source) == []

    def test_order_insensitive_consumer_not_flagged(self):
        source = """
            def total(usage):
                return sum(cpu for cpu in usage.values())
        """
        assert lint(source) == []

    def test_outside_decision_path_not_flagged(self):
        source = """
            def report(rows):
                for name, value in rows.items():
                    print(name, value)
        """
        assert lint(source, path="repro/experiments/report.py") == []

    def test_list_iteration_not_flagged(self):
        source = """
            def place(machines):
                for machine in machines:
                    yield machine
        """
        assert lint(source) == []


# ----------------------------------------------------------------------
# TXN001 — cell-state writes outside the commit path
# ----------------------------------------------------------------------
class TestTXN001:
    def test_direct_subscript_write_flagged(self):
        source = """
            def hack(state, machine):
                state.free_cpu[machine] -= 1.0
        """
        assert "TXN001" in rules_of(lint(source))

    def test_attribute_write_flagged(self):
        source = """
            def hack(state, values):
                state.free_mem = values
        """
        assert "TXN001" in rules_of(lint(source))

    def test_sequence_bump_flagged(self):
        source = """
            def hack(self, machine):
                self.state.seq[machine] += 1
        """
        assert "TXN001" in rules_of(lint(source))

    def test_aliased_array_write_flagged(self):
        source = """
            def hack(state, machine):
                free = state.free_cpu
                free[machine] = 0.0
        """
        assert "TXN001" in rules_of(lint(source))

    def test_snapshot_write_not_flagged(self):
        source = """
            def mask(snapshot, machine):
                snapshot.free_cpu[machine] = 0.0
        """
        assert lint(source) == []

    def test_copy_breaks_alias(self):
        source = """
            def plan(state, machine):
                free = state.free_cpu.copy()
                free[machine] = 0.0
        """
        assert lint(source) == []

    def test_own_init_not_flagged(self):
        source = """
            class Offer:
                def __init__(self, free_cpu):
                    self.free_cpu = free_cpu
        """
        assert lint(source) == []

    def test_allowlisted_module_not_flagged(self):
        source = """
            def claim(self, machine):
                self.free_cpu[machine] -= 1.0
        """
        assert lint(source, path="repro/core/cellstate.py") == []

    def test_read_not_flagged(self):
        source = """
            def look(state, machine):
                return state.free_cpu[machine]
        """
        assert lint(source) == []

    def test_write_in_a_function_reported_once(self):
        source = """
            def poke(state):
                state.free_cpu[0] = 1.0
        """
        findings = lint(source, txn_allow=())
        assert [(d.rule, d.line, d.col) for d in findings] == [("TXN001", 3, 5)]

    def test_alias_does_not_leak_into_a_sibling_function(self):
        source = """
            def keep(state):
                free = state.free_cpu
                return free

            def scratch(free):
                free[0] = 0.0
        """
        assert lint(source) == []

    def test_alias_reaches_a_nested_function(self):
        source = """
            def outer(state):
                free = state.free_cpu
                def inner():
                    free[0] = 0.0
                return inner
        """
        assert [(d.rule, d.line) for d in lint(source)] == [("TXN001", 5)]


class TestMinicellFixture:
    """Sources two helper layers below the decision-path caller
    ``decide.plan`` are flagged in the module that holds them."""

    def test_per_file_rules_flag_every_source_once(self):
        import pathlib

        from repro.analysis.engine import lint_paths

        fixture = pathlib.Path(__file__).parent / "fixtures" / "minicell"
        config = LintConfig(rng_allow=(), clock_allow=(), txn_allow=())
        findings = lint_paths([fixture], config=config)
        assert [
            (pathlib.Path(d.path).name, d.line, d.rule) for d in findings
        ] == [
            ("entropy.py", 3, "DET001"),
            ("entropy.py", 14, "DET002"),
            ("statewrite.py", 6, "TXN001"),
        ]


# ----------------------------------------------------------------------
# FLT001 — exact float comparison on resources
# ----------------------------------------------------------------------
class TestFLT001:
    def test_eq_on_cpu_flagged(self):
        source = """
            def check(job):
                return job.cpu_per_task == 0
        """
        assert rules_of(lint(source)) == ["FLT001"]

    def test_neq_on_free_mem_flagged(self):
        source = """
            def check(a, b):
                return a.free_mem != b.free_mem
        """
        assert rules_of(lint(source)) == ["FLT001"]

    def test_utilization_flagged(self):
        source = """
            def check(state):
                return state.cpu_utilization == 1.0
        """
        assert rules_of(lint(source)) == ["FLT001"]

    def test_epsilon_comparison_not_flagged(self):
        source = """
            def check(a, b, EPSILON):
                return abs(a.free_cpu - b.free_cpu) <= EPSILON
        """
        assert lint(source) == []

    def test_string_comparison_not_flagged(self):
        source = """
            def check(policy):
                return policy.cpu_mode == "strict"
        """
        assert lint(source) == []

    def test_non_resource_identifiers_not_flagged(self):
        source = """
            def check(claim, ok):
                return ok == claim.count
        """
        assert lint(source) == []

    def test_none_comparison_not_flagged(self):
        source = """
            def check(limits):
                return limits.max_cpu == None
        """
        assert lint(source) == []


# ----------------------------------------------------------------------
# GEN001 — mutable default arguments
# ----------------------------------------------------------------------
class TestGEN001:
    def test_list_default_flagged(self):
        assert rules_of(lint("def f(items=[]):\n    return items\n")) == ["GEN001"]

    def test_dict_default_flagged(self):
        assert rules_of(lint("def f(table={}):\n    return table\n")) == ["GEN001"]

    def test_set_constructor_default_flagged(self):
        source = "def f(seen=set()):\n    return seen\n"
        assert rules_of(lint(source)) == ["GEN001"]

    def test_kwonly_default_flagged(self):
        source = "def f(*, items=[]):\n    return items\n"
        assert rules_of(lint(source)) == ["GEN001"]

    def test_none_default_not_flagged(self):
        assert lint("def f(items=None):\n    return items\n") == []

    def test_tuple_default_not_flagged(self):
        assert lint("def f(items=()):\n    return items\n") == []


# ----------------------------------------------------------------------
# FIJ001 — nondeterministic fault-injection hooks
# ----------------------------------------------------------------------
class TestFIJ001:
    """FIJ001 only fires inside the configured fault-injector paths
    (``repro/faults/*``, the hifi failure injector, the retry policy and
    the invariant checker by default);
    DET001/DET002 may fire alongside it, so the assertions check
    membership, not the full rule list."""

    def test_randomstreams_construction_flagged(self):
        source = """
            from repro.sim import RandomStreams

            def install(seed):
                return RandomStreams(seed).stream("chaos")
        """
        assert "FIJ001" in rules_of(lint(source, path="repro/faults/chaos.py"))

    def test_default_rng_flagged_in_fault_path(self):
        source = """
            import numpy as np

            def schedule():
                return np.random.default_rng(0).exponential(60.0)
        """
        assert "FIJ001" in rules_of(lint(source, path="repro/core/retry.py"))

    def test_stdlib_random_flagged_in_fault_path(self):
        source = """
            import random

            def gap():
                return random.expovariate(1.0)
        """
        assert "FIJ001" in rules_of(lint(source, path="repro/faults/chaos.py"))

    def test_wall_clock_flagged_in_fault_path(self):
        source = """
            import time

            def stamp():
                return time.time()
        """
        assert "FIJ001" in rules_of(lint(source, path="repro/faults/chaos.py"))

    def test_datetime_now_flagged_in_fault_path(self):
        source = """
            import datetime

            def stamp():
                return datetime.datetime.now()
        """
        assert "FIJ001" in rules_of(lint(source, path="repro/invariants.py"))

    def test_hifi_failure_injector_covered_by_default(self):
        source = """
            import numpy as np

            rng = np.random.default_rng(1)
        """
        assert "FIJ001" in rules_of(lint(source, path="repro/hifi/failures.py"))

    def test_not_flagged_outside_fault_paths(self):
        source = """
            import numpy as np

            rng = np.random.default_rng(0)
        """
        # DET001 still fires repo-wide; FIJ001 must not.
        assert "FIJ001" not in rules_of(lint(source))

    def test_forked_stream_parameter_not_flagged(self):
        source = """
            import numpy as np

            class Injector:
                def __init__(self, rng: np.random.Generator) -> None:
                    self.rng = rng

                def gap(self, mtbf: float) -> float:
                    return float(self.rng.exponential(mtbf))
        """
        assert lint(source, path="repro/hifi/failures.py") == []

    def test_custom_fault_injector_paths_honored(self):
        source = """
            import random

            def gap():
                return random.expovariate(1.0)
        """
        findings = lint(
            source,
            path="repro/custom/injector.py",
            fault_injector_paths=("repro/custom/*",),
        )
        assert "FIJ001" in rules_of(findings)

    def test_shipped_fault_modules_are_clean(self):
        import pathlib

        from repro.analysis.engine import lint_paths

        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        findings = lint_paths(
            [
                src / "repro" / "faults",
                src / "repro" / "hifi" / "failures.py",
                src / "repro" / "core" / "retry.py",
                src / "repro" / "invariants.py",
            ]
        )
        assert findings == []


# ----------------------------------------------------------------------
# RBS001 — swallowed broad exceptions in recovery paths
# ----------------------------------------------------------------------
class TestRBS001:
    def test_bare_except_flagged_in_recovery_path(self):
        source = """
            def append(log, record):
                try:
                    log.write(record)
                except:
                    pass
        """
        findings = lint(source, path="repro/recovery/checkpoint.py")
        assert rules_of(findings) == ["RBS001"]
        assert "bare except" in findings[0].message

    def test_broad_except_without_reraise_flagged(self):
        source = """
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    return None
        """
        assert "RBS001" in rules_of(lint(source, path="repro/recovery/artifacts.py"))

    def test_base_exception_flagged(self):
        source = """
            def run(fn):
                try:
                    fn()
                except BaseException:
                    return None
        """
        assert "RBS001" in rules_of(lint(source, path="repro/recovery/supervisor.py"))

    def test_tuple_containing_broad_flagged(self):
        source = """
            def run(fn):
                try:
                    fn()
                except (ValueError, Exception):
                    return None
        """
        assert "RBS001" in rules_of(lint(source, path="repro/recovery/runner.py"))

    def test_narrow_except_not_flagged(self):
        source = """
            def load(path):
                try:
                    return open(path).read()
                except (OSError, ValueError) as exc:
                    return str(exc)
        """
        assert lint(source, path="repro/recovery/artifacts.py") == []

    def test_reraise_not_flagged(self):
        source = """
            def append(log, record):
                try:
                    log.write(record)
                except Exception as exc:
                    raise RuntimeError("append failed") from exc
        """
        assert lint(source, path="repro/recovery/checkpoint.py") == []

    def test_nested_reraise_counts(self):
        source = """
            def append(log, record, strict):
                try:
                    log.write(record)
                except Exception as exc:
                    if strict:
                        raise
        """
        assert lint(source, path="repro/recovery/checkpoint.py") == []

    def test_not_flagged_outside_recovery_paths(self):
        source = """
            def best_effort():
                try:
                    return 1
                except Exception:
                    return None
        """
        assert "RBS001" not in rules_of(lint(source))

    def test_covers_experiment_io_and_export_by_default(self):
        source = """
            def save(path, text):
                try:
                    open(path, "w").write(text)
                except Exception:
                    pass
        """
        assert "RBS001" in rules_of(lint(source, path="repro/experiments/io.py"))
        assert "RBS001" in rules_of(lint(source, path="repro/obs/export.py"))

    def test_custom_recovery_paths_honored(self):
        source = """
            def save():
                try:
                    return 1
                except Exception:
                    return None
        """
        findings = lint(
            source,
            path="repro/custom/saver.py",
            recovery_paths=("repro/custom/*",),
        )
        assert "RBS001" in rules_of(findings)

    def test_shipped_recovery_modules_are_clean(self):
        import pathlib

        from repro.analysis.engine import lint_paths

        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        findings = lint_paths(
            [
                src / "repro" / "recovery",
                src / "repro" / "experiments" / "io.py",
                src / "repro" / "obs" / "export.py",
            ]
        )
        assert findings == []


# ----------------------------------------------------------------------
# GLB001 — process-wide mutable state
# ----------------------------------------------------------------------
class TestGLB001:
    def test_global_statement_flagged(self):
        source = """
            _ids = 0

            def next_id():
                global _ids
                _ids += 1
                return _ids
        """
        assert rules_of(lint(source)) == ["GLB001"]

    def test_module_level_counter_flagged(self):
        source = """
            import itertools

            _job_ids = itertools.count(1)
        """
        assert rules_of(lint(source)) == ["GLB001"]

    def test_imported_and_aliased_counters_flagged(self):
        source = """
            import itertools as it
            from itertools import count

            first: object = count()
            second = it.count(1)
        """
        assert rules_of(lint(source)) == ["GLB001", "GLB001"]

    def test_counter_owned_by_an_object_not_flagged(self):
        source = """
            import itertools

            class Ledger:
                def __init__(self):
                    self._ids = itertools.count(1)
        """
        assert lint(source) == []

    def test_other_module_level_calls_not_flagged(self):
        source = """
            import itertools

            PAIRS = list(itertools.product("ab", repeat=2))
            count = len(PAIRS)
        """
        assert lint(source) == []

    def test_inline_suppression_with_reason(self):
        source = """
            RECORDER = None

            def set_recorder(recorder):
                global RECORDER  # omega-lint: disable=GLB001 -- ambient observer
                RECORDER = recorder
        """
        assert lint(source) == []

    def test_shipped_tree_has_only_the_two_observers(self):
        """Every ``global`` left under src/ is a suppressed observer:
        the recorder's two."""
        import pathlib

        from repro.analysis.engine import lint_paths

        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        assert "GLB001" not in rules_of(lint_paths([src]))
        suppressed = {
            path.relative_to(src).as_posix()
            for path in src.rglob("*.py")
            if "disable=GLB001" in path.read_text(encoding="utf-8")
        }
        assert suppressed == {"repro/obs/recorder.py"}

    def test_only_globals_are_the_recorders(self):
        """One process-wide mutable is left, ``obs.RECORDER``: the only
        ``global`` statements under src/ are its setter's and resetter's."""
        import ast
        import pathlib

        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        found = [
            (path.relative_to(src).as_posix(), node.names)
            for path in sorted(src.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Global)
        ]
        assert found == [("repro/obs/recorder.py", ["RECORDER"])] * 2
