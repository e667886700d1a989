"""``omega-sim``: command-line front end for the experiment drivers.

Examples::

    omega-sim fig8 --scale 0.25 --hours 3
    omega-sim fig15 --hours 6
    omega-sim table1

Every command prints the same rows the corresponding benchmark emits.
A command offers only the flags it reads: ``--scale`` (shrink the cell,
and arrival rates with it), ``--hours`` (the simulated horizon),
``--seed`` and ``--samples`` where its grid builder (or ``rows``
function) takes that parameter, and ``--plot`` where it declares a chart.

Observability (see ``docs/OBSERVABILITY.md``): every command that runs
a simulation (a grid) accepts
``--trace FILE`` to record a structured JSONL trace of the run and
``--timeline-interval SECONDS`` to sample ``timeline.*`` telemetry
series (utilization, busy fraction, conflict rate) on the simulated
clock. ``omega-sim omega`` runs a single Omega operating point, the
natural target for tracing. Consumers: ``omega-sim trace FILE...``
summarizes a trace, engine statistics of every run included
(``--json`` for the machine-readable rollup; several files read as
one trace, so their runs compare side by side), and ``omega-sim
perfetto FILE`` converts it to Chrome/Perfetto trace-event JSON for
ui.perfetto.dev.

Performance (see ``docs/PERFORMANCE.md``): sweep commands accept
``--jobs N`` to fan independent sweep points across worker processes
(results are byte-identical to ``--jobs 1``). How fast the simulator
runs is measured by ``python bench/run.py``, not by a subcommand.

Recovery (see ``docs/RECOVERY.md``): sweep commands accept
``--checkpoint DIR`` to durably log each completed sweep point;
``--resume`` continues an interrupted run from that directory, skipping
completed points (the final table and trace are identical to an
uninterrupted run). ``--point-timeout`` bounds how long a sweep point
may run, at every ``--jobs``; worker crashes and timeouts are retried a
fixed number of times and surface as ``recovery.*`` trace events.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from typing import Callable, NamedTuple

from repro import obs
from repro.experiments.io import check_output_path, save_rows
from repro.experiments.registry import EXPERIMENTS, Experiment, run, validated
from repro.experiments.sweeps import CheckFailed
from repro.metrics.ascii_chart import format_table, line_chart
from repro.recovery.checkpoint import CheckpointStore, RecoveryError
from repro.recovery.manifest import RunManifest
from repro.recovery.runner import PointFailure


def render_plot(command: str, rows: list[dict]) -> str | None:
    """Build the --plot chart of a command with a ``Plot`` from its rows."""
    if not rows:
        return None
    key_column, x_column, y_column, title, log_x, log_y = EXPERIMENTS[command].plot
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        label = str(row[key_column]) if key_column else y_column
        series.setdefault(label, []).append((row[x_column], row[y_column]))
    try:
        return line_chart(
            series, title=title, x_label=x_column, y_label=y_column,
            log_x=log_x, log_y=log_y,
        )
    except ValueError:
        return None  # e.g. every y was 0 on a log axis


def _not_positive(value: float) -> str | None:
    return None if 0 < value < math.inf else "must be positive and finite"


def _below_one(value: int) -> str | None:
    return None if value >= 1 else "must be >= 1"


class SharedFlag(NamedTuple):
    """A value flag offered by each command whose ``points`` / ``rows``
    function takes ``param``, which is set to the value times ``unit``.
    ``problem``, if any, says why a value is refused (exit 2), or None."""

    param: str
    flag: str
    dest: str
    unit: float
    problem: Callable | None
    options: dict


SHARED_FLAGS = (
    SharedFlag("scale", "--scale", "scale", 1, _not_positive, dict(
        type=float, default=0.25, help="cell scale factor (1.0 = paper-size presets)")),
    SharedFlag("horizon", "--hours", "hours", 3600.0, _not_positive, dict(
        type=float, default=2.0, help="simulated horizon in hours")),
    SharedFlag("seed", "--seed", "seed", 1, None, dict(
        type=int, default=0, help="master RNG seed")),
    SharedFlag("samples", "--samples", "samples", 1, _below_one, dict(
        type=int, default=50_000, help="Monte Carlo samples")),
)


def _shared(args: argparse.Namespace) -> list[tuple[SharedFlag, float]]:
    """The shared flags ``args``'s command offers, with their values."""
    given = vars(args)
    return [(entry, given[entry.dest]) for entry in SHARED_FLAGS if entry.dest in given]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omega-sim",
        description="Regenerate the tables and figures of the Omega paper "
        "(EuroSys 2013) from the reproduction simulators.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, experiment in EXPERIMENTS.items():
        sub = subparsers.add_parser(name, help=experiment.help)
        for entry in SHARED_FLAGS:
            if entry.param in experiment.parameters:
                sub.add_argument(entry.flag, dest=entry.dest, **entry.options)
        if experiment.plot is not None:
            sub.add_argument(
                "--plot",
                action="store_true",
                help="also render an ASCII chart of the headline series",
            )
        sub.add_argument(
            "--output",
            metavar="FILE",
            help="also save the rows to FILE (.json or .csv)",
        )
        if experiment.points is not None:
            sub.add_argument(
                "--trace",
                metavar="FILE",
                help="record a structured JSONL trace of every simulation run "
                "(summarize it later with `omega-sim trace FILE`)",
            )
            sub.add_argument(
                "--timeline-interval",
                type=float,
                default=None,
                metavar="SECONDS",
                help="sample timeline.* telemetry (cell utilization, queue "
                "depth, busy fraction, conflict rate) every this many "
                "simulated seconds; records land in the --trace file",
            )
            sub.add_argument(
                "--jobs",
                type=int,
                default=1,
                help="worker processes for independent sweep points "
                "(0 = all cores; results are identical to --jobs 1)",
            )
            sub.add_argument(
                "--checkpoint",
                metavar="DIR",
                help="durably log each completed sweep point to DIR "
                "(manifest + append-only JSONL); an interrupted run "
                "continues with --resume",
            )
            sub.add_argument(
                "--resume",
                action="store_true",
                help="resume the run recorded in --checkpoint DIR, skipping "
                "completed points; refuses (exit 2) if the experiment, "
                "seed or parameters changed",
            )
            sub.add_argument(
                "--point-timeout",
                type=float,
                default=None,
                metavar="SECONDS",
                help="kill and retry any sweep point running longer than "
                "this many wall seconds",
            )
        for argument in experiment.arguments:
            if argument.default is False:
                sub.add_argument(argument.flag, action="store_true", help=argument.help)
            else:
                # Kept as typed: the declared parser turns a bad value
                # into one line and exit 2, not an argparse usage dump.
                sub.add_argument(
                    argument.flag,
                    default=argument.default,
                    choices=argument.choices,
                    help=argument.help,
                )

    trace_parser = subparsers.add_parser(
        "trace",
        help="summarize a JSONL trace recorded with --trace: per-scheduler "
        "conflict fraction, busy-time breakdown, conflict timelines, "
        "retry chains",
    )
    trace_parser.add_argument(
        "files",
        nargs="+",
        metavar="FILE",
        help="JSONL trace file(s) to summarize, read in order as one trace",
    )
    trace_parser.add_argument(
        "--jobs", type=int, default=5, help="retry chains to show (longest first)"
    )
    trace_parser.add_argument(
        "--bins", type=int, default=12, help="conflict-timeline bins"
    )
    trace_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable rollup (scheduler rows, "
        "percentiles, conflict timelines, timeline.* series) as JSON "
        "instead of the text report",
    )

    perfetto_parser = subparsers.add_parser(
        "perfetto",
        help="convert a JSONL trace to Chrome/Perfetto trace-event JSON "
        "(open the result in ui.perfetto.dev): sched.attempt records "
        "become duration events, timeline.* samples become counter "
        "tracks",
    )
    perfetto_parser.add_argument("file", help="JSONL trace file to convert")
    perfetto_parser.add_argument(
        "--output",
        metavar="FILE",
        help="output path (default: INPUT.perfetto.json)",
    )
    return parser


def _file_error(flag: str, path: str) -> str | None:
    """Why ``flag path`` cannot be written, or None; checked before any
    input is read or any simulation runs."""
    if os.path.isdir(path):
        return f"{flag} {path} is a directory, not a file"
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return f"{flag} directory {parent} does not exist"
    return None


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.summary import summarize_file

    for flag, value in (("--jobs", args.jobs), ("--bins", args.bins)):
        if value < 1:
            print(f"omega-sim trace: {flag} must be >= 1, got {value}", file=sys.stderr)
            return 2
    try:
        summary = summarize_file(*args.files)
        if args.json:
            import json

            report = json.dumps(
                summary.json_rollup(top_jobs=args.jobs, bins=args.bins),
                indent=2,
                sort_keys=True,
            )
        else:
            report = summary.render(top_jobs=args.jobs, bins=args.bins)
    except (OSError, ValueError) as exc:
        print(f"omega-sim trace: {exc}", file=sys.stderr)
        return 2
    try:
        print(report)
    except BrokenPipeError:
        # Reports are long; piping into `head`/`less -F` is routine.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _cmd_perfetto(args: argparse.Namespace) -> int:
    from repro.obs.perfetto import export_file

    output = args.output or f"{args.file}.perfetto.json"
    error = _file_error("--output", output)
    if error is not None:
        print(f"omega-sim perfetto: {error}", file=sys.stderr)
        return 2
    try:
        count = export_file(args.file, output)
    except (OSError, ValueError) as exc:
        print(f"omega-sim perfetto: {exc}", file=sys.stderr)
        return 2
    print(
        f"perfetto: {count} trace events written to {output} "
        "(open in ui.perfetto.dev)",
        file=sys.stderr,
    )
    return 0


def _manifest_parameters(args: argparse.Namespace) -> dict:
    """The result-determining parameters recorded in a run manifest and
    in the ``--output`` envelope: the shared flags the command offers
    (the seed aside, which a manifest keeps in a field of its own, and
    an envelope beside them), and every argument it declares, as typed.

    ``--jobs`` is deliberately absent: parallelism does not change the
    rows, so a sweep checkpointed with ``--jobs 8`` may resume serially.
    """
    parameters = {entry.dest: value for entry, value in _shared(args) if entry.param != "seed"}
    # Only recorded when set: sampling changes the trace, so a resume
    # must match, but older checkpoints (no such key) stay resumable.
    if getattr(args, "timeline_interval", None) is not None:
        parameters["timeline_interval"] = args.timeline_interval
    for argument in EXPERIMENTS[args.command].arguments:
        parameters[argument.dest] = getattr(args, argument.dest)
    return parameters


def _resolve(args: argparse.Namespace) -> tuple[Experiment, dict]:
    """The declaration to run and its validated ``run`` parameters.

    The shared flags the command offers set their parameters; declared
    arguments set theirs, a set ``overrides`` switch (``--smoke``)
    replaces some afterwards, and a set ``variant`` switch runs that
    declaration instead. Raises a one-line ``ValueError`` for a value
    outside its declared range.
    """
    experiment = EXPERIMENTS[args.command]
    pool = {entry.param: value * entry.unit for entry, value in _shared(args)}
    pool["timeline_interval"] = getattr(args, "timeline_interval", None)
    declared, overrides = {}, {}
    for argument in experiment.arguments:
        value = getattr(args, argument.dest)
        if argument.variant is not None:
            if value:
                experiment, declared, overrides = argument.variant, {}, {}
                break
        elif argument.overrides is not None:
            if value:
                overrides.update(argument.overrides)
        else:
            declared[argument.param or argument.dest] = value
    params = {**experiment.accepted(pool), **declared, **overrides}
    return experiment, validated(experiment, params)


def _open_checkpoint(args: argparse.Namespace) -> CheckpointStore | None:
    """Open the ``--checkpoint`` store of a sweep command, or None.

    Raises :class:`RecoveryError` on unusable --checkpoint/--resume
    combinations (reported as a one-line message, exit 2).
    """
    checkpoint_dir = getattr(args, "checkpoint", None)
    resume = bool(getattr(args, "resume", False))
    if resume and not checkpoint_dir:
        raise RecoveryError("--resume requires --checkpoint DIR")
    if not checkpoint_dir:
        return None
    manifest = RunManifest(
        experiment=args.command,
        seed=getattr(args, "seed", 0),
        parameters=_manifest_parameters(args),
    )
    store = CheckpointStore(checkpoint_dir)
    if resume:
        resumed = store.resume(manifest)
        if store.salvaged_line is not None:
            print(
                f"checkpoint: dropped a partial record at "
                f"{store.log_path}:{store.salvaged_line} (crash mid-append); "
                "the point will re-run",
                file=sys.stderr,
            )
        print(
            f"checkpoint: resuming from {checkpoint_dir} "
            f"({resumed} completed point(s) on record)",
            file=sys.stderr,
        )
    else:
        store.initialize(manifest)
    return store


def _argument_error(args: argparse.Namespace) -> str | None:
    """Why an experiment command's arguments cannot run, or None.

    Checked before any simulation starts or any checkpoint is written,
    so a bad value costs one line and exit 2 rather than a traceback —
    or, for ``--output`` and ``--trace``, a finished sweep whose rows or
    trace cannot be saved.
    """
    for entry, value in _shared(args):
        problem = entry.problem and entry.problem(value)
        if problem:
            return f"{entry.flag} {problem}, got {value}"
    if getattr(args, "jobs", 1) < 0:
        return f"--jobs must be >= 0 (0 = all cores), got {args.jobs}"
    timeout = getattr(args, "point_timeout", None)
    if timeout is not None and _not_positive(timeout):
        return f"--point-timeout {_not_positive(timeout)}, got {timeout}"
    if args.output:
        try:
            check_output_path(args.output)
        except ValueError as exc:
            return f"--output {exc}"
    if getattr(args, "trace", None):
        return _file_error("--trace", args.trace)
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "perfetto":
        return _cmd_perfetto(args)
    error = _argument_error(args)
    if error is not None:
        print(f"omega-sim: {error}", file=sys.stderr)
        return 2
    try:
        experiment, params = _resolve(args)
        store = _open_checkpoint(args)
    except (ValueError, RecoveryError) as exc:
        print(f"omega-sim: {exc}", file=sys.stderr)
        return 2

    recorder = obs.NULL_RECORDER
    if getattr(args, "trace", None):
        try:
            recorder = obs.TraceRecorder(path=args.trace, keep_records=False)
        except OSError as exc:
            if store is not None:
                store.close()
            print(f"omega-sim: cannot open trace file: {exc}", file=sys.stderr)
            return 2
    try:
        with store or contextlib.nullcontext():
            rows = run(
                experiment,
                params,
                jobs=getattr(args, "jobs", 1),
                store=store,
                point_timeout=getattr(args, "point_timeout", None),
                recorder=recorder,
            )
        if experiment.note is not None:
            print(experiment.note(rows), file=sys.stderr)
    except (ValueError, RecoveryError) as exc:
        # ValueError: a parameter the built grid cannot take (see `run`).
        print(f"omega-sim: {exc}", file=sys.stderr)
        return 2
    except (PointFailure, CheckFailed) as exc:
        print(f"omega-sim: {exc}", file=sys.stderr)
        return 1
    finally:
        if recorder.enabled:
            recorder.close()
            print(
                f"trace: {recorder.records_emitted} records written to {args.trace}",
                file=sys.stderr,
            )
    if store is not None:
        print(
            f"checkpoint: {store.appended} point(s) appended, "
            f"{len(store.completed) - store.appended} skipped (already "
            f"complete) in {store.directory}",
            file=sys.stderr,
        )
    print(format_table(rows))
    if args.output:
        parameters = _manifest_parameters(args)
        parameters.update((entry.dest, value) for entry, value in _shared(args))
        saved = save_rows(
            rows, args.output, experiment=args.command, parameters=parameters
        )
        print(f"rows saved to {saved}", file=sys.stderr)
    if getattr(args, "plot", False):
        chart = render_plot(args.command, rows)
        if chart is None:
            print(f"(no chart available for {args.command})", file=sys.stderr)
        else:
            print()
            print(chart)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
