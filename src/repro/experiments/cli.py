"""``omega-sim``: command-line front end for the experiment drivers.

Examples::

    omega-sim fig8 --scale 0.25 --hours 3
    omega-sim fig15 --hours 6
    omega-sim table1

Every command prints the same rows the corresponding benchmark emits;
``--scale`` shrinks the cell (and arrival rates with it), ``--hours``
sets the simulated horizon.

Observability (see ``docs/OBSERVABILITY.md``): every command accepts
``--trace FILE`` to record a structured JSONL trace of the run,
``--timeline-interval SECONDS`` to sample ``timeline.*`` telemetry
series (utilization, busy fraction, conflict rate) on the simulated
clock, and ``--verbose`` to print engine statistics. ``omega-sim
omega`` runs a single Omega operating point, the natural target for
tracing. Consumers: ``omega-sim trace FILE`` summarizes a trace
(``--json`` for the machine-readable rollup), ``omega-sim perfetto
FILE`` converts it to Chrome/Perfetto trace-event JSON for
ui.perfetto.dev, and ``omega-sim report FILE...`` renders a
self-contained HTML report with SVG charts and percentile tables.

Static analysis (see ``docs/STATIC_ANALYSIS.md``): ``omega-sim lint
[PATHS]`` runs the omega-lint rule pass (determinism,
transaction-safety and resource-arithmetic invariants) and exits
non-zero on findings; ``--format json`` emits a machine-readable
report.

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
import math
import os
import sys
from typing import Callable

from repro import obs
from repro.analysis import cli as lint
from repro.analysis import sanitizer as _san
from repro.obs import timeline as obs_timeline
from repro.experiments import ablations, conflict_modes, hifi_perf, mesos, monolithic
from repro.experiments import conflict_avoidance as conflict_avoidance_experiments
from repro.experiments import federation as federation_experiments
from repro.experiments import mapreduce as mapreduce_experiments
from repro.experiments import omega as omega_experiments
from repro.experiments import resilience as resilience_experiments
from repro.experiments import sweep3d, tables, workload_char
from repro.experiments.common import format_table
from repro.experiments.io import check_output_path, save_rows
from repro.faults.retry import RETRY_POLICIES
from repro.metrics.ascii_chart import line_chart
from repro.perf.parallel import resolve_jobs
from repro.recovery import (
    DEFAULT_POLICY,
    CheckpointStore,
    PointFailure,
    RecoveryContext,
    RecoveryError,
    RunManifest,
    SupervisorPolicy,
    activate,
)


def _scaled_kwargs(args: argparse.Namespace) -> dict:
    kwargs = {
        "horizon": args.hours * 3600.0,
        "seed": args.seed,
        "scale": args.scale,
    }
    if args.command in JOBS_COMMANDS:
        kwargs["jobs"] = args.jobs
    return kwargs


def _cmd_fig2(args) -> list[dict]:
    return workload_char.figure2_rows(samples=args.samples, seed=args.seed)


def _cmd_fig3(args) -> list[dict]:
    return workload_char.figure3_rows(samples=args.samples, seed=args.seed)


def _cmd_fig4(args) -> list[dict]:
    return workload_char.figure4_rows(samples=args.samples, seed=args.seed)


def _cmd_fig5a(args) -> list[dict]:
    return monolithic.figure5a_6a_rows(**_scaled_kwargs(args))


def _cmd_fig5b(args) -> list[dict]:
    return monolithic.figure5b_6b_rows(**_scaled_kwargs(args))


def _cmd_partitioned(args) -> list[dict]:
    return monolithic.partitioned_rows(**_scaled_kwargs(args))


def _cmd_fig7(args) -> list[dict]:
    return mesos.figure7_rows(**_scaled_kwargs(args))


def _cmd_fig5c(args) -> list[dict]:
    return omega_experiments.figure5c_6c_rows(**_scaled_kwargs(args))


def _cmd_fig8(args) -> list[dict]:
    rows = omega_experiments.figure8_rows(**_scaled_kwargs(args))
    points = omega_experiments.figure8_saturation_points(rows)
    print(f"saturation points (relative lambda_batch): {points}", file=sys.stderr)
    return rows


def _cmd_fig9(args) -> list[dict]:
    return omega_experiments.figure9_rows(**_scaled_kwargs(args))


def _cmd_omega(args) -> list[dict]:
    return omega_experiments.single_run_rows(
        cluster=args.cluster,
        rate_factor=args.rate_factor,
        smoke=args.smoke,
        predictor=args.predictor,
        **_scaled_kwargs(args),
    )


def _cmd_fig10(args) -> list[dict]:
    return sweep3d.figure10_rows(**_scaled_kwargs(args))


def _cmd_fig11(args) -> list[dict]:
    return hifi_perf.figure11_rows(**_scaled_kwargs(args))


def _cmd_fig12(args) -> list[dict]:
    return hifi_perf.figure12_rows(**_scaled_kwargs(args))


def _cmd_fig13(args) -> list[dict]:
    rows = hifi_perf.figure13_rows(**_scaled_kwargs(args))
    shift = hifi_perf.figure13_saturation_shift(rows)
    print(f"saturation shift: {shift}", file=sys.stderr)
    return rows


def _cmd_fig14(args) -> list[dict]:
    return conflict_modes.figure14_rows(**_scaled_kwargs(args))


def _cmd_fig15(args) -> list[dict]:
    return mapreduce_experiments.figure15_rows(**_scaled_kwargs(args))


def _cmd_fig16(args) -> list[dict]:
    return mapreduce_experiments.figure16_rows(
        cluster="C", **_scaled_kwargs(args)
    )


def _cmd_ablation_offer(args) -> list[dict]:
    return ablations.offer_policy_rows(
        horizon=args.hours * 3600.0, seed=args.seed, jobs=args.jobs
    )


def _cmd_ablation_retry(args) -> list[dict]:
    return ablations.retry_position_rows(
        scale=args.scale, horizon=args.hours * 3600.0, jobs=args.jobs
    )


def _cmd_ablation_util(args) -> list[dict]:
    return ablations.initial_utilization_rows(
        scale=args.scale, horizon=args.hours * 3600.0, jobs=args.jobs
    )


def _cmd_ablation_preemption(args) -> list[dict]:
    return ablations.preemption_rows(
        scale=args.scale, horizon=args.hours * 3600.0, seed=args.seed,
        jobs=args.jobs,
    )


def _cmd_ablation_backoff(args) -> list[dict]:
    return ablations.backoff_rows(
        scale=args.scale, horizon=args.hours * 3600.0, jobs=args.jobs
    )


def _cmd_ablation_placement(args) -> list[dict]:
    return ablations.placement_strategy_rows(
        scale=args.scale, horizon=args.hours * 3600.0, jobs=args.jobs
    )


def _cmd_resilience(args) -> list[dict]:
    if args.smoke:
        return resilience_experiments.resilience_smoke_rows(
            seed=args.seed, jobs=args.jobs
        )
    intensities = tuple(float(value) for value in args.intensities.split(","))
    return resilience_experiments.resilience_rows(
        intensities=intensities,
        policy=args.policy,
        predictor=args.predictor,
        **_scaled_kwargs(args),
    )


def _cmd_conflict_avoidance(args) -> list[dict]:
    if args.smoke:
        return conflict_avoidance_experiments.conflict_avoidance_smoke_rows(
            seed=args.seed, jobs=args.jobs
        )
    factors = tuple(float(value) for value in args.factors.split(","))
    intensities = tuple(float(value) for value in args.intensities.split(","))
    return conflict_avoidance_experiments.conflict_avoidance_rows(
        factors=factors, intensities=intensities, **_scaled_kwargs(args)
    )


def _cmd_federation(args) -> list[dict]:
    if args.degenerate_gate:
        federated, single = federation_experiments.degenerate_rows(
            seed=args.seed,
            scale=args.scale,
            horizon=args.hours * 3600.0,
            jobs=args.jobs,
        )
        columns = federation_experiments.SHARED_COLUMNS
        if format_table(federated, columns) != format_table(single, columns):
            print(
                "omega-sim federation: degenerate-baseline gate FAILED — "
                "the 1-cell zero-staleness zero-intensity federation table "
                "differs from the single-cell omega table",
                file=sys.stderr,
            )
            print(format_table(federated, columns), file=sys.stderr)
            print(format_table(single, columns), file=sys.stderr)
            raise SystemExit(1)
        print(
            "federation: degenerate-baseline gate OK (1-cell federation is "
            "byte-identical to the single-cell omega baseline)",
            file=sys.stderr,
        )
        return federated
    if args.smoke:
        return federation_experiments.federation_smoke_rows(
            seed=args.seed, jobs=args.jobs
        )
    cells = tuple(int(value) for value in args.cells.split(","))
    staleness = tuple(float(value) for value in args.staleness.split(","))
    intensities = tuple(float(value) for value in args.intensities.split(","))
    return federation_experiments.federation_rows(
        cells=cells,
        staleness_values=staleness,
        intensities=intensities,
        policy=args.policy,
        **_scaled_kwargs(args),
    )


def _cmd_validate(args) -> list[dict]:
    from repro.workload.validation import validate_all

    return [report.as_row() for report in validate_all()]


def _cmd_table1(args) -> list[dict]:
    return tables.table1_rows()


def _cmd_table2(args) -> list[dict]:
    return tables.table2_rows()


COMMANDS: dict[str, tuple[Callable, str]] = {
    "fig2": (_cmd_fig2, "workload shares: jobs/tasks/CPU/RAM, batch vs service"),
    "fig3": (_cmd_fig3, "CDFs of job runtime and inter-arrival time"),
    "fig4": (_cmd_fig4, "CDF of tasks per job"),
    "fig5a": (_cmd_fig5a, "monolithic single-path: wait time & busyness sweep"),
    "fig5b": (_cmd_fig5b, "monolithic multi-path: wait time & busyness sweep"),
    "fig5c": (_cmd_fig5c, "shared-state Omega: wait time & busyness sweep"),
    "partitioned": (_cmd_partitioned, "statically partitioned scheduler sweep"),
    "fig7": (_cmd_fig7, "two-level (Mesos): wait, busyness, abandoned jobs"),
    "fig8": (_cmd_fig8, "Omega: scaling the batch arrival rate"),
    "fig9": (_cmd_fig9, "Omega: 1-32 load-balanced batch schedulers"),
    "omega": (_cmd_omega, "one Omega run at a single operating point "
              "(pairs with --trace/--timeline-interval)"),
    "fig10": (_cmd_fig10, "busyness surfaces for all five schemes"),
    "fig11": (_cmd_fig11, "hifi: service busyness over t_job x t_task (C)"),
    "fig12": (_cmd_fig12, "hifi: cluster B sweep w/ conflict fraction"),
    "fig13": (_cmd_fig13, "hifi: 3 batch schedulers vs 1 (cluster C)"),
    "fig14": (_cmd_fig14, "conflict detection/commit granularity choices"),
    "fig15": (_cmd_fig15, "MapReduce speedup CDFs per policy"),
    "fig16": (_cmd_fig16, "utilization time series, normal vs max-parallel"),
    "table1": (_cmd_table1, "comparison of scheduling approaches"),
    "table2": (_cmd_table2, "lightweight vs high-fidelity simulator"),
    "ablation-offer": (_cmd_ablation_offer, "Mesos offer-all vs fair-share offers"),
    "ablation-retry": (_cmd_ablation_retry, "conflict retry at queue head vs tail"),
    "ablation-util": (_cmd_ablation_util, "conflict fraction vs standing utilization"),
    "ablation-preemption": (_cmd_ablation_preemption, "priority preemption on vs off"),
    "ablation-backoff": (_cmd_ablation_backoff, "OCC hot-machine backoff windows"),
    "ablation-placement": (
        _cmd_ablation_placement,
        "placement strategy vs conflict fraction",
    ),
    "resilience": (
        _cmd_resilience,
        "fault-injected degradation: architecture x fault intensity",
    ),
    "conflict-avoidance": (
        _cmd_conflict_avoidance,
        "predictive conflict avoidance: predictor on/off x operating "
        "point x fault intensity",
    ),
    "federation": (
        _cmd_federation,
        "federated multi-cell Omega: cell count x aggregate staleness x "
        "cell-fault intensity (blackouts, feed partitions, link flaps)",
    ),
    "validate": (_cmd_validate, "sanity-check the cluster presets"),
}

#: Commands whose sweep points fan out across worker processes with
#: --jobs N (see repro.perf.parallel); the rest run serially and say so.
JOBS_COMMANDS = frozenset(
    {
        "fig5a",
        "fig5b",
        "fig5c",
        "partitioned",
        "fig7",
        "fig8",
        "fig9",
        "omega",
        "fig10",
        "fig14",
        "ablation-offer",
        "ablation-retry",
        "ablation-util",
        "ablation-preemption",
        "ablation-backoff",
        "ablation-placement",
        "resilience",
        "conflict-avoidance",
        "federation",
    }
)


#: Commands that can render an ASCII chart with --plot:
#: command -> (series-key column, x column, y column, log_x, log_y, title).
PLOTS = {
    "fig5a": ("cluster", "t_job_service", "wait_batch", True, True,
              "Figure 5a: mean batch wait vs t_job (single-path)"),
    "fig5b": ("cluster", "t_job_service", "wait_batch", True, True,
              "Figure 5b: mean batch wait vs t_job(service) (multi-path)"),
    "fig5c": ("cluster", "t_job_service", "wait_batch", True, True,
              "Figure 5c: mean batch wait vs t_job(service) (shared state)"),
    "fig7": ("cluster", "t_job_service", "busy_batch", True, False,
             "Figure 7b: batch framework busyness vs t_job(service) (Mesos)"),
    "fig8": ("cluster", "rate_factor", "busy_batch", False, False,
             "Figure 8b: batch busyness vs relative lambda(batch)"),
    "fig9": ("num_batch_schedulers", "rate_factor", "conflict_batch", False, False,
             "Figure 9a: conflict fraction vs relative lambda(batch)"),
    "fig12": (None, "t_job_service", "conflict_service", True, False,
              "Figure 12b: service conflict fraction vs t_job(service)"),
    "fig14": ("mode", "t_job_service", "conflict_service", True, True,
              "Figure 14a: conflict fraction by detection/commit mode"),
    "ablation-util": (None, "initial_utilization", "conflict_batch", False, False,
                      "Conflict fraction vs standing utilization"),
    "ablation-backoff": (None, "cooldown_s", "conflict_batch", False, False,
                         "Conflict fraction vs hot-machine backoff window"),
    "resilience": ("architecture", "intensity", "wait_batch", False, False,
                   "Resilience: mean batch wait vs fault intensity"),
    "federation": ("cells", "intensity", "wait_batch", False, False,
                   "Federation: mean batch wait vs cell-fault intensity"),
}


def render_plot(command: str, rows: list[dict]) -> str | None:
    """Build the --plot chart for a command from its result rows."""
    spec = PLOTS.get(command)
    if spec is None or not rows:
        return None
    key_column, x_column, y_column, log_x, log_y, title = spec
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
    for name, (_, help_text) in COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
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
            "--verbose",
            action="store_true",
            help="also print simulator engine statistics "
            "(events processed, peak queue depth, wall seconds)",
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
            "--sanitize",
            action="store_true",
            help="run under omega-san, the transaction-isolation "
            "sanitizer: every run fails fast (exit 1) on a "
            "write-outside-commit, stale-snapshot-read, "
            "foreign-snapshot-write, or non-serializable commit "
            "(see docs/STATIC_ANALYSIS.md)",
        )
        if name in JOBS_COMMANDS:
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
        if name == "omega":
            sub.add_argument(
                "--cluster",
                default="B",
                help="cluster preset letter (default B)",
            )
            sub.add_argument(
                "--rate-factor",
                type=float,
                default=1.0,
                help="relative batch arrival-rate multiplier",
            )
            sub.add_argument(
                "--smoke",
                action="store_true",
                help="CI smoke variant: 5%% cell, 30 simulated minutes "
                "(ignores --scale/--hours)",
            )
            sub.add_argument(
                "--predictor",
                action="store_true",
                help="enable predictive conflict avoidance: contention-"
                "aware placement steering plus the predictive "
                "escalation retry policy (see docs/RESILIENCE.md)",
            )
        if name == "resilience":
            sub.add_argument(
                "--intensities",
                default=",".join(
                    str(value)
                    for value in resilience_experiments.DEFAULT_INTENSITIES
                ),
                help="comma-separated fault-intensity multipliers "
                "(0 = fault-free baseline)",
            )
            sub.add_argument(
                "--policy",
                choices=RETRY_POLICIES,
                default="immediate",
                help="Omega conflict-retry policy (immediate reproduces the "
                "historical behavior; see docs/RESILIENCE.md)",
            )
            sub.add_argument(
                "--smoke",
                action="store_true",
                help="CI smoke variant: tiny cell, short horizon, two "
                "intensities, starvation-escalation policy",
            )
            sub.add_argument(
                "--predictor",
                action="store_true",
                help="also steer placement with a conflict predictor "
                "(independent of --policy; --policy predictive implies "
                "it)",
            )
        if name == "federation":
            sub.add_argument(
                "--cells",
                default=",".join(
                    str(value)
                    for value in federation_experiments.DEFAULT_CELL_COUNTS
                ),
                help="comma-separated federation sizes (member cells)",
            )
            sub.add_argument(
                "--staleness",
                default=",".join(
                    str(value)
                    for value in federation_experiments.DEFAULT_STALENESS
                ),
                help="comma-separated aggregate-view staleness intervals in "
                "simulated seconds (0 = the router reads live digests)",
            )
            sub.add_argument(
                "--intensities",
                default=",".join(
                    str(value)
                    for value in federation_experiments.DEFAULT_INTENSITIES
                ),
                help="comma-separated cell-fault intensity multipliers over "
                "the federation baseline mix (0 = fault-free)",
            )
            sub.add_argument(
                "--policy",
                choices=federation_experiments.ROUTING_POLICIES,
                default="least-loaded",
                help="front-door routing policy (see docs/FEDERATION.md)",
            )
            sub.add_argument(
                "--smoke",
                action="store_true",
                help="CI smoke variant: tiny cells, short horizon, 1-2 "
                "cells, fault-free and hostile intensities",
            )
            sub.add_argument(
                "--degenerate-gate",
                action="store_true",
                help="run the degenerate-baseline gate instead of the "
                "sweep: a 1-cell/zero-staleness/zero-fault federation "
                "must reproduce the single-cell omega table "
                "byte-for-byte (exit 1 on any difference)",
            )
        if name == "conflict-avoidance":
            sub.add_argument(
                "--factors",
                default=",".join(
                    str(value)
                    for value in conflict_avoidance_experiments.DEFAULT_FACTORS
                ),
                help="comma-separated relative batch arrival-rate factors "
                "(Figure-8 operating points)",
            )
            sub.add_argument(
                "--intensities",
                default=",".join(
                    str(value)
                    for value in conflict_avoidance_experiments.DEFAULT_INTENSITIES
                ),
                help="comma-separated fault-intensity multipliers over the "
                "resilience baseline mix (0 = fault-free)",
            )
            sub.add_argument(
                "--smoke",
                action="store_true",
                help="CI smoke variant: tiny cell, short horizon, one "
                "operating point, predictor on and off",
            )

    lint_parser = subparsers.add_parser(
        "lint",
        help="run omega-lint, the domain static-analysis pass "
        "(determinism, transaction-safety, and resource-arithmetic "
        "rules; see docs/STATIC_ANALYSIS.md)",
    )
    lint.add_lint_arguments(lint_parser)

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
        "(open the result in ui.perfetto.dev): spans and sched.busy "
        "intervals become duration events, timeline.* samples become "
        "counter tracks",
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


def _verbose_stats_table() -> str:
    """Engine statistics accumulated over every run of this command."""
    snapshot = obs.get_registry().snapshot(prefix="sim.")
    rows = [{"stat": name, "value": value} for name, value in snapshot.items()]
    if not rows:
        return "(no simulator statistics recorded)"
    return format_table(rows)


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        summary = obs.summarize_file(args.file)
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
    """The result-determining parameters recorded in a run manifest.

    ``--jobs`` is deliberately absent: parallelism does not change the
    rows, so a sweep checkpointed with ``--jobs 8`` may resume serially.
    """
    parameters = {
        "scale": args.scale,
        "hours": args.hours,
    }
    # Only recorded when set: sampling changes the trace, so a resume
    # must match, but older checkpoints (no such key) stay resumable.
    if getattr(args, "timeline_interval", None) is not None:
        parameters["timeline_interval"] = args.timeline_interval
    if args.command == "omega":
        parameters["cluster"] = args.cluster
        parameters["rate_factor"] = args.rate_factor
        parameters["smoke"] = bool(args.smoke)
        # Only recorded when on, so pre-predictor checkpoints resume.
        if getattr(args, "predictor", False):
            parameters["predictor"] = True
    if args.command == "resilience":
        parameters["intensities"] = getattr(args, "intensities", "")
        parameters["policy"] = getattr(args, "policy", "")
        parameters["smoke"] = bool(getattr(args, "smoke", False))
        if getattr(args, "predictor", False):
            parameters["predictor"] = True
    if args.command == "conflict-avoidance":
        parameters["factors"] = getattr(args, "factors", "")
        parameters["intensities"] = getattr(args, "intensities", "")
        parameters["smoke"] = bool(getattr(args, "smoke", False))
    if args.command == "federation":
        parameters["cells"] = getattr(args, "cells", "")
        parameters["staleness"] = getattr(args, "staleness", "")
        parameters["intensities"] = getattr(args, "intensities", "")
        parameters["policy"] = getattr(args, "policy", "")
        parameters["smoke"] = bool(getattr(args, "smoke", False))
        parameters["degenerate_gate"] = bool(
            getattr(args, "degenerate_gate", False)
        )
    return parameters


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
    and exit 2 rather than a traceback — or, for ``--output``, a
    finished sweep whose rows cannot be saved.
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
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "lint":
        return lint.run_lint(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "perfetto":
        return _cmd_perfetto(args)
    if args.command == "report":
        return _cmd_report(args)
    command, _ = COMMANDS[args.command]
    error = _argument_error(args)
    if error is not None:
        print(f"omega-sim: {error}", file=sys.stderr)
        return 2
    timeline_interval = getattr(args, "timeline_interval", None)
    if timeline_interval is not None:
        try:
            # Process-wide default: every LightweightConfig the command
            # builds (including pickled sweep points) inherits it.
            obs_timeline.set_default_interval(timeline_interval)
        except ValueError as exc:
            print(f"omega-sim: {exc}", file=sys.stderr)
            return 2
    if getattr(args, "jobs", 1) != 1:
        args.jobs = resolve_jobs(args.jobs)
        if args.command not in JOBS_COMMANDS:
            print(
                f"omega-sim: {args.command} does not support --jobs; "
                "running serially",
                file=sys.stderr,
            )

    try:
        context = _make_recovery_context(args)
    except RecoveryError as exc:
        print(f"omega-sim: {exc}", file=sys.stderr)
        return 2

    sanitizing = bool(getattr(args, "sanitize", False))
    saved_san_env = None
    if sanitizing:
        # The env var rides into --jobs N worker processes, which build
        # their own sanitizer from it (see LightweightSimulation.build).
        saved_san_env = os.environ.get("OMEGA_SAN")
        os.environ["OMEGA_SAN"] = "1"
        _san.install()

    recorder = None
    if getattr(args, "trace", None):
        try:
            recorder = obs.TraceRecorder(path=args.trace, keep_records=False)
        except OSError as exc:
            print(f"omega-sim: cannot open trace file: {exc}", file=sys.stderr)
            return 2
        obs.set_recorder(recorder)
    try:
        if context is not None:
            with activate(context):
                rows = command(args)
        else:
            rows = command(args)
    except RecoveryError as exc:
        print(f"omega-sim: {exc}", file=sys.stderr)
        return 2
    except PointFailure as exc:
        print(f"omega-sim: {exc}", file=sys.stderr)
        return 1
    except _san.IsolationViolation as exc:
        print(f"omega-sim: {exc}", file=sys.stderr)
        if exc.stack:
            print(exc.stack, file=sys.stderr, end="")
        return 1
    finally:
        if timeline_interval is not None:
            obs_timeline.set_default_interval(None)
        if sanitizing:
            san = _san.ACTIVE
            if san is not None and san.writes_checked:
                print(
                    f"omega-san: {san.writes_checked} writes, "
                    f"{san.reads_checked} reads, "
                    f"{san.commits_checked} commits checked, "
                    f"{san.violations} violation(s)",
                    file=sys.stderr,
                )
            _san.uninstall()
            if saved_san_env is None:
                os.environ.pop("OMEGA_SAN", None)
            else:
                os.environ["OMEGA_SAN"] = saved_san_env
        if recorder is not None:
            obs.reset_recorder()
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
    if getattr(args, "verbose", False):
        print()
        print("simulator statistics:")
        print(_verbose_stats_table())
    if getattr(args, "output", None):
        saved = save_rows(
            rows,
            args.output,
            experiment=args.command,
            parameters={
                "scale": args.scale,
                "hours": args.hours,
                "seed": args.seed,
            },
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
