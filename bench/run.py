"""The repo benchmark: ``python bench/run.py``.

Runs the workloads of ``workloads.py``, each repetition in a fresh child
process (``child.py``), one at a time, and prints every metric of
BENCHMARK.json by name with its unit. Host time (what the simulator
costs) and simulated statistics (what the paper reports) are kept apart:
the first is noisy and bounded, the second repeats exactly and is
checked against the committed golden rows. README.md beside this file
has the glossary.

The driver's form, one workload and one JSON object on the last line:

    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
GOLDEN_DIR = HERE / "golden"
DIGESTS = GOLDEN_DIR / "digests.json"

#: A run holds at least this many repetitions however long they take:
#: each part of a timing is its median over the repetitions.
MIN_REPS = 2
CHILD_TIMEOUT_S = 150

#: Simulated statistics by metric name -> field of the result rows,
#: averaged over a workload's rows. They swing from seed to seed, and
#: some can be zero, so they are reported with the layers, without a
#: bound; what guards them is that they repeat exactly (see judge()).
SIM_PER_LAYER = {
    "sim.busy_batch": "busy_batch",
    "sim.wait_batch_s": "wait_batch",
    "sim.wait_service_s": "wait_service",
    "sim.conflict_fraction_batch": "conflict_batch",
    "sim.conflict_fraction_service": "conflict_service",
    "sim.unscheduled_fraction": "unscheduled_fraction",
}

#: Span of spans.py -> its (self seconds, calls) metrics.
SPAN_METRICS = {
    "sim.loop": ("sim.loop_self_s", None),
    "sim.push": ("sim.push_s", "sim.push_calls"),
    "callback.arrive": ("workload.arrive_self_s", None),
    "workload.make_job": ("workload.make_job_s", "workload.jobs"),
    "workload.sample": ("workload.sample_s", "workload.sample_calls"),
    "workload.initial_fill": ("workload.initial_fill_s", None),
    "schedulers.submit": (None, "schedulers.submit_calls"),
    "callback.think_complete": (None, "schedulers.attempts"),
    "schedulers.mesos.offer": (None, "schedulers.mesos.offers"),
    "core.cellstate.sync": ("core.cellstate.sync_s", "core.cellstate.sync_calls"),
    "core.cellstate.claim": ("core.cellstate.claim_s", "core.cellstate.claim_calls"),
    "core.cellstate.release": ("core.cellstate.release_s", "core.cellstate.release_calls"),
    "core.placement.place": ("core.placement.place_s", "core.placement.place_calls"),
    "core.transaction.commit": ("core.transaction.commit_s", "core.transaction.commit_calls"),
    "hifi.placement.place": ("hifi.placement.place_s", "hifi.placement.place_calls"),
    "hifi.trace.synthesize": ("hifi.trace.synthesize_s", None),
    "federation.router.submit": ("federation.router.submit_s", "federation.router.submit_calls"),
    "federation.cells.digest": ("federation.cells.digest_s", "federation.cells.digest_calls"),
    "metrics.record": ("metrics.record_s", "metrics.record_calls"),
    "metrics.summarize": ("metrics.summarize_s", None),
    "experiments.build": ("experiments.build_s", "experiments.build_calls"),
    "bench.calibrate": ("bench.calibrate_s", None),
    "bench.child": ("bench.unattributed_s", None),
}
#: Metrics that add up the self seconds of several spans.
SUMMED_SPANS = {
    "sim.callback_self_s": ("callback.task_end", "callback.other"),
    "schedulers.queue_self_s": ("schedulers.submit", "callback.think_complete"),
    "schedulers.mesos.offer_s": ("schedulers.mesos.offer", "callback.mesos_offer"),
}
#: Counts the tracer takes beside the spans, reported as they are.
COUNT_METRICS = (
    "sim.events.task_end",
    "sim.events.arrive",
    "sim.events.think_complete",
    "sim.events.other",
    "core.placement.tasks_requested",
    "core.transaction.claims",
    "core.transaction.conflicted_calls",
)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Running children
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, quick: bool, trace: bool) -> dict:
    """One repetition in a fresh process; raises if the child fails."""
    spec = {
        "workload": workload,
        "seed": seed,
        "quick": quick,
        "trace": trace,
        "spawned": time.time(),
    }
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return json.loads(done.stdout.splitlines()[-1])


def measure(
    workload: str, seed: int, seconds: float, reps: int | None, quick: bool
) -> list[dict]:
    """Untraced repetitions, strictly one after another: ``reps`` of
    them, or as many as fit in ``seconds`` and at least MIN_REPS."""
    runs: list[dict] = []
    begin = time.perf_counter()

    def enough() -> bool:
        if reps is not None:
            return len(runs) >= reps
        return len(runs) >= MIN_REPS and time.perf_counter() - begin >= seconds

    while not enough():
        runs.append(run_child(workload, seed, quick, trace=False))
    return runs


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def judge(workload: str, seed: int, runs: list[dict], golden: bool) -> dict[int, str]:
    """Row index -> reason, for every row that failed.

    A row fails if its run or its invariant check raised, if it differs
    between two runs of the same seed (as do all rows if the runs'
    event counts differ), or (``golden``) if it differs from the golden
    rows: seed 0 is compared field by field, other seeds with a
    committed digest as a whole, and seeds without one rest on the
    first two checks.
    """
    rows = runs[0]["rows"]
    failed = {
        index: f"raised {row['error']}" for index, row in enumerate(rows) if "error" in row
    }
    for other in runs[1:]:
        for index, reason in report.diff_rows(other["rows"], rows).items():
            failed.setdefault(index, f"differs between runs of one seed: {reason}")
    counts = {(run["events"], run["peak_queue_depth"]) for run in runs}
    if len(counts) > 1 and not failed:
        reason = f"(events, peak queue depth) differ between runs of one seed: {sorted(counts)}"
        failed = dict.fromkeys(range(len(rows)), reason)
    if not golden:
        return failed
    if seed == 0:
        with open(GOLDEN_DIR / f"{workload}.seed0.json") as handle:
            for index, reason in report.diff_rows(rows, json.load(handle)).items():
                failed.setdefault(index, f"differs from its golden row: {reason}")
    with open(DIGESTS) as handle:
        digest = json.load(handle)[workload].get(str(seed))
    if digest is not None and digest != report.rows_digest(rows) and not failed:
        reason = f"rows differ from the golden digest of seed {seed}"
        failed = dict.fromkeys(range(len(rows)), reason)
    return failed


def update_golden(workload: str, seed: int, rows: list[dict]) -> None:
    """Commit to these rows: seed 0 in full, every seed as a digest."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    if seed == 0:
        with open(GOLDEN_DIR / f"{workload}.seed0.json", "w") as handle:
            json.dump(rows, handle, indent=1, sort_keys=True)
            handle.write("\n")
    digests = {}
    if DIGESTS.exists():
        with open(DIGESTS) as handle:
            digests = json.load(handle)
    digests.setdefault(workload, {})[str(seed)] = report.rows_digest(rows)
    with open(DIGESTS, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def jobs_scheduled(run: dict) -> int:
    return sum(row.get("jobs_scheduled", 0) for row in run["rows"])


def end_to_end(runs: list[dict]) -> dict[str, dict]:
    """Every end-to-end metric of one workload.

    ``value`` of a timing is in calibrated host seconds
    (report.calibrated_sum); beside it go the median, min, max and
    count of the raw whole-repetition times, and each of those.
    Simulated statistics come from the rows, which all repetitions
    share.
    """
    rows = runs[0]["rows"]
    metrics = {}
    for phase in ("setup", "run"):
        parts = [run[f"{phase}_parts"] for run in runs]
        slowdowns = [run[f"{phase}_slowdowns"] for run in runs]
        metrics[f"{phase}_s"] = {
            **report.summarize([sum(rep) for rep in parts]),
            "value": report.calibrated_sum(parts, slowdowns),
        }
    metrics["jobs_per_s"] = {"value": jobs_scheduled(runs[0]) / metrics["run_s"]["value"]}
    rss = report.summarize([run["peak_rss_mb"] for run in runs])
    metrics["peak_rss_mb"] = {**rss, "value": rss["median"]}
    submitted = sum(row.get("jobs_submitted", 0) for row in rows)
    metrics["sim_scheduled_fraction"] = {"value": jobs_scheduled(runs[0]) / submitted}
    return metrics


def per_layer(untraced: dict[str, dict], traced: dict) -> dict[str, float | None]:
    """Every per-layer metric of one workload, from one traced
    repetition and, for the two that need them, the end-to-end timings
    of the untraced ones.

    ``_s`` is self time in host seconds, ``_calls`` a count at the same
    boundary. A span that never ran on this workload reads 0; one with a
    target that could not be patched reads ``None``.
    """
    spans, counts, missing = traced["spans"], traced["counts"], traced["missing"]

    def stat(span: str, column: int) -> float | None:
        return None if span in missing else spans.get(span, (0, 0.0, 0.0))[column]

    def ratio(numerator: float | None, denominator: float | None) -> float | None:
        if numerator is None or denominator is None:
            return None
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, float | None] = {}
    for span, (seconds_name, calls_name) in SPAN_METRICS.items():
        if seconds_name:
            metrics[seconds_name] = stat(span, 2)
        if calls_name:
            metrics[calls_name] = stat(span, 0)
    for name, parts in SUMMED_SPANS.items():
        selves = [stat(span, 2) for span in parts]
        metrics[name] = None if None in selves else sum(selves)
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0)
    rows = traced["rows"]
    phases = ("setup_s", "run_s")
    metrics.update(
        {
            "sim.events": traced["events"],
            "sim.events_per_s": traced["events"] / untraced["run_s"]["value"],
            "sim.peak_queue_depth": traced["peak_queue_depth"],
            "schedulers.jobs_per_attempt": ratio(
                jobs_scheduled(traced), metrics["schedulers.attempts"]
            ),
            "core.placement.planned_ratio": ratio(
                counts.get("core.placement.tasks_planned", 0),
                counts.get("core.placement.tasks_requested", 0),
            ),
            "core.transaction.accept_ratio": ratio(
                counts.get("core.transaction.tasks_accepted", 0),
                counts.get("core.transaction.tasks_claimed", 0),
            ),
            "federation.router.reroutes": sum(row.get("rerouted", 0) for row in rows),
            "experiments.import_s": traced["setup_parts"][1],
            "bench.traced_wall_s": spans["bench.child"][1],
            "bench.trace_overhead_ratio": sum(
                end_to_end([traced])[name]["value"] for name in phases
            )
            / sum(untraced[name]["value"] for name in phases),
        }
    )
    for name, field in SIM_PER_LAYER.items():
        value = report.mean_field(rows, field)
        # NaN: no row has the statistic (nothing of the kind was scheduled).
        metrics[name] = 0.0 if value != value else value
    return metrics


# ----------------------------------------------------------------------
# One workload, start to finish
# ----------------------------------------------------------------------
def run_workload(name: str, args: argparse.Namespace, spec: dict) -> dict:
    """Measure, judge and print one workload; returns its record for
    ``out/results.json``."""
    reps = args.reps or (1 if args.trace else None)
    runs = measure(name, args.seed, args.seconds, reps, args.quick)
    traced = run_child(name, args.seed, args.quick, trace=True) if args.trace else None
    # The shims only watch: a traced run must give the very same rows.
    every = runs + [traced] if traced else runs
    failed = judge(name, args.seed, every, golden=not (args.quick or args.update_golden))
    if args.update_golden:
        if failed:
            raise SystemExit(f"bench: {name}: not committing to failed rows: {failed}")
        update_golden(name, args.seed, runs[0]["rows"])
    record = {
        "workload": name,
        "attempted": len(runs[0]["rows"]),
        "failed": len(failed),
        "reasons": failed,
        "reps": len(runs),
        "horizon_s": runs[0]["horizon_s"],
        "horizon_divisor": runs[0]["horizon_divisor"],
        "numpy": runs[0]["numpy"],
        "end_to_end": end_to_end(runs),
    }
    if traced:
        record["per_layer"] = per_layer(record["end_to_end"], traced)
    print(f"== {name}: seed {args.seed}, {len(runs)} untraced repetitions ==")
    print_record(record, spec)
    for index, reason in sorted(failed.items()):
        print(f"bench: {name}: row {index} FAILED: {reason}", file=sys.stderr)
    return record


def print_record(record: dict, spec: dict) -> None:
    """Every metric by name, with its unit and direction."""
    head = f"{'metric':<24}{'unit':<7}{'better':<8}{'value':>12}"
    print(head + f"{'median':>12}{'min':>12}{'max':>12}{'n':>3}")
    for metric in spec["end_to_end"]:
        got = record["end_to_end"][metric["name"]]
        line = f"{metric['name']:<24}{metric['unit']:<7}{metric['better']:<8}{got['value']:>12.6g}"
        if "n" in got:
            line += f"{got['median']:>12.6g}{got['min']:>12.6g}{got['max']:>12.6g}{got['n']:>3}"
        print(line)
    print(
        f"{'rows_failed':<24}{'count':<7}{'lower':<8}{record['failed']:>12}"
        f" of {record['attempted']} attempted"
    )
    if "per_layer" in record:
        print(f"{'layer metric':<40}{'unit':<7}{'better':<8}{'value':>12}")
        for metric in spec["per_layer"]:
            value = record["per_layer"][metric["name"]]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"{metric['name']:<40}{metric['unit']:<7}{metric['better']:<8}{shown:>12}")


def driver_line(record: dict, spec: dict, trace: bool) -> str:
    """The one JSON object the driver reads from the last line."""
    if trace:
        values = {m["name"]: record["per_layer"][m["name"]] for m in spec["per_layer"]}
    else:
        values = {m["name"]: record["end_to_end"][m["name"]]["value"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in values.items()
            },
        }
    )


def provenance(args: argparse.Namespace, records: list[dict]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], stdout=subprocess.PIPE, text=True
        )
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": args.loadavg,
        "python": platform.python_version(),
        "numpy": records[0]["numpy"],
        "git_commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "reps": {record["workload"]: record["reps"] for record in records},
        "quick": args.quick,
        "horizon_divisor": records[0]["horizon_divisor"],
    }


# ----------------------------------------------------------------------
def selfcheck(spec: dict) -> list[str]:
    """Does the harness itself hold? Every workload at a tenth of its
    horizon, twice untraced and once traced; one line per failure."""
    problems = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs = measure(workload, 0, 0.0, 2, quick=True)
        traced = run_child(workload, 0, True, trace=True)
        failed = judge(workload, 0, runs + [traced], golden=False)
        found = [f"row {index} {reason}" for index, reason in sorted(failed.items())]
        layers = per_layer(end_to_end(runs), traced)
        found += [f"{name} was not measured" for name, value in layers.items() if value is None]
        declared = {metric["name"] for metric in spec["per_layer"]}
        if declared != set(layers):
            found.append(f"BENCHMARK.json and run.py disagree on {sorted(declared ^ set(layers))}")
        if layers["bench.unattributed_s"] > 0.1 * layers["bench.traced_wall_s"]:
            found.append(
                f"{layers['bench.unattributed_s']:.3f} s of the traced "
                f"{layers['bench.traced_wall_s']:.3f} s lies in no span"
            )
        print(f"selfcheck {workload}: {'ok' if not found else 'FAILED'}")
        problems += [f"{workload}: {line}" for line in found]
    return problems


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="run only this one (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="goes into the configs (default 0)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=spec["run_seconds"],
        help=f"repeat a workload for this long and at least {MIN_REPS} times",
    )
    parser.add_argument("--reps", type=int, help="exactly this many untraced repetitions instead")
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="per-layer metrics from a traced repetition beside one untraced (or --reps)",
    )
    parser.add_argument("--quick", action="store_true", help="horizons / 10; no golden rows")
    parser.add_argument(
        "--update-golden",
        action="store_true",
        help="commit to this seed's rows under golden/ (in full for seed 0, else a digest)",
    )
    parser.add_argument("--selfcheck", action="store_true", help="check the harness itself")
    args = parser.parse_args(argv)

    args.loadavg = os.getloadavg()
    if args.loadavg[0] > (os.cpu_count() or 1):
        print(
            f"bench: load average {args.loadavg[0]:.2f} exceeds the {os.cpu_count()} cores; "
            "timings will be disturbed",
            file=sys.stderr,
        )
    if args.selfcheck:
        problems = selfcheck(spec)
        for problem in problems:
            print(f"selfcheck: {problem}", file=sys.stderr)
        return 1 if problems else 0

    try:
        records = [
            run_workload(name, args, spec)
            for name in ([args.workload] if args.workload else names)
        ]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"bench: a repetition did not finish (see its output above): {exc}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.json", "w") as handle:
        json.dump({"provenance": provenance(args, records), "workloads": records}, handle, indent=1)
        handle.write("\n")
    if args.workload:
        print(driver_line(records[0], spec, bool(args.trace)))
    return 1 if any(record["failed"] for record in records) else 0


if __name__ == "__main__":
    sys.exit(main())
