"""``omega-sim``: command-line front end for the experiment drivers.

Examples::

    omega-sim fig8 --scale 0.25 --hours 3
    omega-sim fig15 --hours 6
    omega-sim table1

Every command prints the same rows the corresponding benchmark emits;
``--scale`` shrinks the cell (and arrival rates with it), ``--hours``
sets the simulated horizon.

Observability (see ``docs/OBSERVABILITY.md``): every command accepts
``--trace FILE`` to record a structured JSONL trace of the run and
``--timeline-interval SECONDS`` to sample ``timeline.*`` telemetry
series (utilization, busy fraction, conflict rate) on the simulated
clock. ``omega-sim omega`` runs a single Omega operating point, the
natural target for tracing. Consumers: ``omega-sim trace FILE``
summarizes a trace, engine statistics of every run included
(``--json`` for the machine-readable rollup), ``omega-sim perfetto
FILE`` converts it to Chrome/Perfetto trace-event JSON for
ui.perfetto.dev, and ``omega-sim report FILE...`` renders a
self-contained HTML report with SVG charts and percentile tables.

Performance (see ``docs/PERFORMANCE.md``): sweep commands accept
``--jobs N`` to fan independent sweep points across worker processes
(results are byte-identical to ``--jobs 1``). How fast the simulator
runs is measured by ``python bench/run.py``, not by a subcommand.

Recovery (see ``docs/RECOVERY.md``): sweep commands accept
``--checkpoint DIR`` to durably log each completed sweep point;
``--resume`` continues an interrupted run from that directory, skipping
completed points (the final table and trace are identical to an
uninterrupted run). ``--point-timeout`` / ``--point-attempts`` bound
how long and how often a sweep point may run; worker crashes are
retried and surface as ``recovery.*`` trace events.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from repro import obs
from repro.experiments.common import format_table
from repro.experiments.io import check_output_path, save_rows
from repro.experiments.registry import EXPERIMENTS, Experiment, run, validated
from repro.experiments.sweeps import CheckFailed
from repro.metrics.ascii_chart import line_chart
from repro.recovery.checkpoint import CheckpointStore, RecoveryError
from repro.recovery.manifest import RunManifest
from repro.recovery.runner import RecoveryContext
from repro.recovery.supervisor import DEFAULT_POLICY, PointFailure, SupervisorPolicy


def render_plot(command: str, rows: list[dict]) -> str | None:
    """Build the --plot chart for a command from its result rows."""
    experiment = EXPERIMENTS.get(command)
    if experiment is None or experiment.plot is None or not rows:
        return None
    key_column, x_column, y_column, title, log_x, log_y = experiment.plot
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omega-sim",
        description="Regenerate the tables and figures of the Omega paper "
        "(EuroSys 2013) from the reproduction simulators.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, experiment in EXPERIMENTS.items():
        sub = subparsers.add_parser(name, help=experiment.help)
        sub.add_argument(
            "--scale",
            type=float,
            default=0.25,
            help="cell scale factor (1.0 = paper-size presets)",
        )
        sub.add_argument(
            "--hours", type=float, default=2.0, help="simulated horizon in hours"
        )
        sub.add_argument("--seed", type=int, default=0, help="master RNG seed")
        sub.add_argument(
            "--samples",
            type=int,
            default=50_000,
            help="Monte Carlo samples (characterization figures only)",
        )
        sub.add_argument(
            "--plot",
            action="store_true",
            help="also render an ASCII chart of the headline series "
            "(supported commands only)",
        )
        sub.add_argument(
            "--output",
            metavar="FILE",
            help="also save the rows to FILE (.json or .csv)",
        )
        sub.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes for independent sweep points "
            "(0 = all cores; results are identical to --jobs 1)",
        )
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
        if experiment.points is not None:
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
                "this many wall seconds (requires --jobs >= 2)",
            )
            sub.add_argument(
                "--point-attempts",
                type=int,
                default=DEFAULT_POLICY.max_attempts,
                metavar="N",
                help="attempts per sweep point before the run fails, for "
                "points lost to worker crashes or timeouts "
                f"(default {DEFAULT_POLICY.max_attempts})",
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
    trace_parser.add_argument("file", help="JSONL trace file to summarize")
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

    report_parser = subparsers.add_parser(
        "report",
        help="render JSONL trace(s) as a self-contained static HTML "
        "report: timeline charts (inline SVG), per-scheduler percentile "
        "tables, conflict timelines; several traces compare side by side",
    )
    report_parser.add_argument(
        "files", nargs="+", metavar="FILE", help="JSONL trace file(s)"
    )
    report_parser.add_argument(
        "--output",
        metavar="FILE",
        default="report.html",
        help="output path (default: report.html)",
    )
    return parser


def _output_file_error(path: str) -> str | None:
    """Why a trace consumer cannot write ``--output path``, or None;
    checked before any input is read."""
    if os.path.isdir(path):
        return f"--output {path} is a directory, not a file"
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return f"--output directory {parent} does not exist"
    return None


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.summary import summarize_file

    if args.bins < 1:
        print(f"omega-sim trace: --bins must be >= 1, got {args.bins}", file=sys.stderr)
        return 2
    try:
        summary = summarize_file(args.file)
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
    error = _output_file_error(output)
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


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import write_report

    error = _output_file_error(args.output)
    if error is not None:
        print(f"omega-sim report: {error}", file=sys.stderr)
        return 2
    try:
        size = write_report(args.files, args.output)
    except (OSError, ValueError) as exc:
        print(f"omega-sim report: {exc}", file=sys.stderr)
        return 2
    print(
        f"report: {len(args.files)} trace(s) rendered to {args.output} "
        f"({size} bytes)",
        file=sys.stderr,
    )
    return 0


def _manifest_parameters(args: argparse.Namespace) -> dict:
    """The result-determining parameters recorded in a run manifest and
    in the ``--output`` envelope: scale, hours and every argument the
    command declares, as typed.

    ``--jobs`` is deliberately absent: parallelism does not change the
    rows, so a sweep checkpointed with ``--jobs 8`` may resume serially.
    """
    parameters = {"scale": args.scale, "hours": args.hours}
    # Only recorded when set: sampling changes the trace, so a resume
    # must match, but older checkpoints (no such key) stay resumable.
    if args.timeline_interval is not None:
        parameters["timeline_interval"] = args.timeline_interval
    for argument in EXPERIMENTS[args.command].arguments:
        parameters[argument.dest] = getattr(args, argument.dest)
    return parameters


def _resolve(args: argparse.Namespace) -> tuple[Experiment, dict]:
    """The declaration to run and its validated ``run`` parameters.

    The shared flags reach whichever of horizon / seed / scale / samples
    the experiment takes; declared arguments set their parameter, a set
    ``overrides`` switch (``--smoke``) replaces some afterwards, and a
    set ``variant`` switch runs that declaration instead. Raises a
    one-line ``ValueError`` for a value outside its declared range.
    """
    experiment = EXPERIMENTS[args.command]
    pool = {
        "horizon": args.hours * 3600.0,
        "seed": args.seed,
        "scale": args.scale,
        "samples": args.samples,
        "timeline_interval": args.timeline_interval,
    }
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


def _make_recovery_context(args: argparse.Namespace) -> RecoveryContext | None:
    """Build the recovery context for a sweep command, or None.

    Raises :class:`RecoveryError` on unusable --checkpoint/--resume
    combinations (reported as a one-line message, exit 2).
    """
    checkpoint_dir = getattr(args, "checkpoint", None)
    resume = bool(getattr(args, "resume", False))
    if resume and not checkpoint_dir:
        raise RecoveryError("--resume requires --checkpoint DIR")
    policy = DEFAULT_POLICY
    timeout = getattr(args, "point_timeout", None)
    attempts = getattr(args, "point_attempts", DEFAULT_POLICY.max_attempts)
    if timeout is not None or attempts != DEFAULT_POLICY.max_attempts:
        try:
            policy = SupervisorPolicy(point_timeout=timeout, max_attempts=attempts)
        except ValueError as exc:
            raise RecoveryError(str(exc)) from exc
    if not checkpoint_dir:
        if policy is DEFAULT_POLICY:
            return None
        return RecoveryContext(policy=policy)
    manifest = RunManifest(
        experiment=args.command,
        seed=args.seed,
        parameters=_manifest_parameters(args),
    )
    store = CheckpointStore(checkpoint_dir)
    resumed = 0
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
    return RecoveryContext(store=store, policy=policy, resumed_points=resumed)


def _argument_error(args: argparse.Namespace) -> str | None:
    """Why an experiment command's arguments cannot run, or None.

    Checked before any simulation starts, so a bad value costs one line
    and exit 2 rather than a traceback — or, for ``--output`` and
    ``--trace``, a finished sweep whose rows or trace cannot be saved.
    """
    if not 0 < args.scale < math.inf:
        return f"--scale must be positive and finite, got {args.scale}"
    if not 0 < args.hours < math.inf:
        return f"--hours must be positive and finite, got {args.hours}"
    if args.jobs < 0:
        return f"--jobs must be >= 0 (0 = all cores), got {args.jobs}"
    if args.samples < 1:
        return f"--samples must be >= 1, got {args.samples}"
    if args.output:
        try:
            check_output_path(args.output)
        except ValueError as exc:
            return f"--output {exc}"
    if args.trace and os.path.isdir(args.trace):
        return f"--trace {args.trace} is a directory, not a file"
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "perfetto":
        return _cmd_perfetto(args)
    if args.command == "report":
        return _cmd_report(args)
    error = _argument_error(args)
    if error is not None:
        print(f"omega-sim: {error}", file=sys.stderr)
        return 2
    try:
        experiment, params = _resolve(args)
        context = _make_recovery_context(args)
    except (ValueError, RecoveryError) as exc:
        print(f"omega-sim: {exc}", file=sys.stderr)
        return 2

    recorder = obs.NULL_RECORDER
    if args.trace:
        try:
            recorder = obs.TraceRecorder(path=args.trace, keep_records=False)
        except OSError as exc:
            print(f"omega-sim: cannot open trace file: {exc}", file=sys.stderr)
            return 2
    try:
        with context or contextlib.nullcontext():
            rows = run(experiment, params, jobs=args.jobs, recovery=context, recorder=recorder)
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
    if context is not None and context.store is not None:
        print(
            f"checkpoint: {context.points_completed} point(s) appended, "
            f"{context.points_skipped} skipped (already complete) in "
            f"{context.store.directory}",
            file=sys.stderr,
        )
    print(format_table(rows))
    if args.output:
        saved = save_rows(
            rows,
            args.output,
            experiment=args.command,
            parameters={**_manifest_parameters(args), "seed": args.seed},
        )
        print(f"rows saved to {saved}", file=sys.stderr)
    if args.plot:
        chart = render_plot(args.command, rows)
        if chart is None:
            print(f"(no chart available for {args.command})", file=sys.stderr)
        else:
            print()
            print(chart)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
