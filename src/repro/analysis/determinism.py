"""Runtime determinism gate: same seed, same trace — or hard failure.

Static checks (``tests/test_source_invariants.py``) catch the *sources*
of nondeterminism; this gate catches the *symptom* end-to-end: it runs
an experiment twice with the same master seed, records both runs
through :mod:`repro.obs`, and diffs the traces event-by-event.
Wall-clock fields (``wall_ms`` — the only real-time value in a trace
record) are ignored; everything else, including simulated times,
scheduler/job ids, and commit outcomes, must be byte-identical. The
returned experiment rows are compared too.

A second mode (:func:`run_gate` with ``jobs``, ``--compare-jobs N``)
compares a *serial* run against the same experiment fanned out over N
worker processes (see :mod:`repro.recovery.runner`): parallel execution
is only admissible because it is observationally identical to serial,
and this gate is where that claim is enforced end-to-end — rows and
traces both.

Run it directly (used by CI)::

    python -m repro.analysis.determinism
    python -m repro.analysis.determinism --experiment fig8 --compare-jobs 4

With no ``--experiment`` it runs every check the registry's gates
declare (:class:`repro.experiments.registry.Gate`), one result line
each; ``--experiment NAME`` runs the one check the mode flags select.

Note the gate runs both passes in one process, so it cannot see
``PYTHONHASHSEED``-dependent divergence between *processes* — that is
the ``unordered_iteration`` check's job; the gate catches everything
else (stateful module globals, unseeded draws, iteration over
identity-keyed containers).
"""

from __future__ import annotations

import argparse
import functools
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.obs.recorder import TraceRecorder

#: Trace-record fields carrying wall-clock time, never compared.
WALL_FIELDS = ("wall_ms",)


def values_equal(a: Any, b: Any) -> bool:
    """Structural equality that treats NaN as equal to NaN.

    Sparse experiment rows legitimately carry NaN (e.g. a service wait
    time when no service job finished); ``nan != nan`` must not read as
    nondeterminism.
    """
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(values_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            values_equal(x, y) for x, y in zip(a, b)
        )
    return a == b


@dataclass(frozen=True)
class DeterminismReport:
    """Outcome of one double-run comparison."""

    records_a: int
    records_b: int
    divergences: list[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not self.divergences

    def render(self) -> str:
        header = (
            f"determinism gate: {self.records_a} vs {self.records_b} trace "
            f"records -> {'IDENTICAL' if self.identical else 'DIVERGED'}"
        )
        return "\n".join([header, *self.divergences])


def canonical_record(
    record: dict[str, Any], ignore_fields: Sequence[str] = WALL_FIELDS
) -> dict[str, Any]:
    """A record with wall-clock fields removed (top level and nested
    ``fields``), ready for exact comparison."""
    clean = {key: value for key, value in record.items() if key not in ignore_fields}
    nested = clean.get("fields")
    if isinstance(nested, dict):
        clean["fields"] = {
            key: value for key, value in nested.items() if key not in ignore_fields
        }
    return clean


def diff_traces(
    trace_a: list[dict[str, Any]],
    trace_b: list[dict[str, Any]],
    ignore_fields: Sequence[str] = WALL_FIELDS,
    max_divergences: int = 10,
) -> list[str]:
    """Describe where two traces diverge (empty list == identical)."""
    divergences: list[str] = []
    if len(trace_a) != len(trace_b):
        divergences.append(
            f"record count differs: {len(trace_a)} vs {len(trace_b)}"
        )
    for index, (raw_a, raw_b) in enumerate(zip(trace_a, trace_b)):
        record_a = canonical_record(raw_a, ignore_fields)
        record_b = canonical_record(raw_b, ignore_fields)
        if not values_equal(record_a, record_b):
            divergences.append(
                f"record {index}: {record_a!r} != {record_b!r}"
            )
            if len(divergences) >= max_divergences:
                divergences.append("... (further divergences elided)")
                break
    return divergences


def _run_traced(experiment: Callable[..., Any], *args) -> tuple[Any, list[dict[str, Any]]]:
    recorder = TraceRecorder()
    return experiment(*args, recorder=recorder), recorder.records


def run_gate(
    experiment: Callable[..., Any],
    jobs: int = 0,
    ignore_fields: Sequence[str] = WALL_FIELDS,
) -> DeterminismReport:
    """Run ``experiment`` twice, each on a fresh trace recorder, and diff.

    ``experiment`` takes the keyword ``recorder`` to trace to and must
    be self-seeding (fix its own master seed). With ``jobs`` 0 it is
    called with no other argument both times; otherwise it also takes a
    worker count and is called with ``1`` and then with ``jobs``, so a
    parallel run must be observationally indistinguishable from serial.
    Divergent *return values* are reported as well as divergent traces:
    a run whose trace matches but whose rows differ is still
    nondeterministic.
    """
    if jobs and jobs < 2:
        raise ValueError(f"--compare-jobs needs >= 2 workers, got {jobs}")
    first, second = ((1,), (jobs,)) if jobs else ((), ())
    result_a, trace_a = _run_traced(experiment, *first)
    result_b, trace_b = _run_traced(experiment, *second)
    divergences = diff_traces(trace_a, trace_b, ignore_fields)
    if not values_equal(result_a, result_b):
        divergences.append(
            f"experiment rows differ between --jobs 1 and --jobs {jobs}"
            if jobs
            else "experiment return values differ between runs"
        )
    return DeterminismReport(
        records_a=len(trace_a), records_b=len(trace_b), divergences=divergences
    )


# ----------------------------------------------------------------------
# CLI (CI entry point)
# ----------------------------------------------------------------------
def _run_check(options: argparse.Namespace) -> DeterminismReport:
    """The one check the (possibly overlaid) flags select.

    The in-process modes run the registered experiment at its gate's
    shrunken grid; ``--timeline-interval`` lands on every config, so
    ``timeline.*`` records are gated like any other record.
    """
    if options.kill_resume:
        from repro.recovery.gate import run_kill_resume_gate

        return run_kill_resume_gate(
            experiment=options.experiment,
            seed=options.seed,
            scale=options.scale,
            hours=options.hours,
            artifacts_dir=options.artifacts_dir,
            kill_after=options.kill_after,
            timeline_interval=options.timeline_interval,
        )
    from repro.experiments.registry import EXPERIMENTS, run

    experiment = EXPERIMENTS[options.experiment]
    pool = {
        "horizon": options.hours * 3600.0,
        "seed": options.seed,
        "scale": options.scale,
        "timeline_interval": options.timeline_interval,
    }
    params = {**experiment.accepted(pool), **experiment.gate.overrides}
    return run_gate(functools.partial(run, experiment, params), options.compare_jobs)


def _declared_checks(gates: dict, artifacts_dir: str):
    """The flags of every check the registered gates declare — what a
    run with no ``--experiment`` does, one CI step's worth each."""
    for name, gate in gates.items():
        if not gate.jobs:
            continue
        for interval in dict.fromkeys((None, gate.timeline)):
            sampled = {"experiment": name, "timeline_interval": interval}
            yield sampled
            yield {**sampled, "compare_jobs": gate.jobs}
        if gate.kill_resume:
            yield {
                "experiment": name,
                "timeline_interval": gate.timeline,
                "kill_resume": True,
                "artifacts_dir": f"{artifacts_dir}/{name}",
            }


def _label(check: dict) -> str:
    """A declared check as the flags that re-run it alone."""
    flags = (
        (f"--{key.replace('_', '-')}", value)
        for key, value in check.items()
        if value is not None
    )
    return " ".join(
        flag if value is True else f"{flag} {value}" for flag, value in flags
    )


def main(argv: list[str] | None = None) -> int:
    from repro.experiments.registry import EXPERIMENTS

    gates = {
        name: experiment.gate
        for name, experiment in EXPERIMENTS.items()
        if experiment.gate is not None
    }
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.determinism",
        description="Run an experiment twice with the same master seed "
        "and fail if the structured traces differ in anything but wall "
        "time. With no --experiment, run every check the registered "
        "gates declare (double run, serial vs parallel, timeline "
        "sampling, kill and resume), one result line each.",
    )
    parser.add_argument(
        "--experiment",
        choices=tuple(gates),
        default=None,
        help="gate one registered experiment (default: all of them, every "
        "declared check); the mode flags --compare-jobs, "
        "--timeline-interval and --kill-resume select the check and "
        "need this",
    )
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument(
        "--scale", type=float, default=0.05, help="cell scale factor"
    )
    parser.add_argument(
        "--hours", type=float, default=0.5, help="simulated horizon in hours"
    )
    parser.add_argument(
        "--timeline-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also sample timeline.* telemetry every this many simulated "
        "seconds during the gated runs; the samples are compared like "
        "every other trace record (see repro.obs.timeline)",
    )
    parser.add_argument(
        "--compare-jobs",
        type=int,
        default=0,
        metavar="N",
        help="instead of double-running serially, compare --jobs 1 "
        "against --jobs N of the same experiment (N >= 2)",
    )
    parser.add_argument(
        "--kill-resume",
        action="store_true",
        help="kill-and-resume mode: run the experiment through the "
        "omega-sim CLI with --checkpoint, SIGKILL it mid-sweep, resume "
        "it, and fail unless the final table is byte-identical to an "
        "uninterrupted run (and the trace identical modulo wall time); "
        "see docs/RECOVERY.md",
    )
    parser.add_argument(
        "--artifacts-dir",
        default="kill-resume-artifacts",
        metavar="DIR",
        help="kill-resume mode: directory for the runs' outputs, "
        "checkpoint, logs and report (kept for post-mortems; with no "
        "--experiment, one subdirectory per experiment)",
    )
    parser.add_argument(
        "--kill-after",
        type=int,
        default=2,
        metavar="N",
        help="kill-resume mode: SIGKILL the victim once N sweep points "
        "are durably checkpointed",
    )
    args = parser.parse_args(argv)
    if args.kill_after < 1:
        print(
            f"determinism gate: --kill-after must be >= 1, got {args.kill_after}",
            file=sys.stderr,
        )
        return 2

    if args.experiment is not None:
        checks = [{}]
    elif args.compare_jobs or args.kill_resume or args.timeline_interval is not None:
        print(
            "determinism gate: --compare-jobs, --timeline-interval and "
            "--kill-resume select one check and need --experiment NAME",
            file=sys.stderr,
        )
        return 2
    else:
        checks = list(_declared_checks(gates, args.artifacts_dir))

    status = 0
    for check in checks:
        # A declared check is the parsed flags with its own laid over.
        options = argparse.Namespace(**{**vars(args), **check})
        mode = " (kill-resume)" if options.kill_resume else ""
        caught = (
            (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired)
            if options.kill_resume
            else ValueError
        )
        try:
            report = _run_check(options)
        except caught as exc:
            print(f"determinism gate{mode}: {exc}", file=sys.stderr)
            return 2
        print(f"[{_label(check)}] {report.render()}" if check else report.render())
        if report.records_a == 0:
            print(
                "determinism gate: experiment emitted no trace records; "
                "the comparison is vacuous",
                file=sys.stderr,
            )
            return 2
        if not report.identical:
            status = 1
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
