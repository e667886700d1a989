"""Is the benchmark steady? ``python bench/spread.py``.

Does what the driver does before it accepts the benchmark: runs every
workload once per seed, in the driver's form, and takes for each
end-to-end metric the distance between the first and third quartile of
its values as a share of their median. It does so twice, holds both sets
against the bounds of BENCHMARK.json (report.check_bounds) and exits
non-zero on a breach. Ten seeds and five workloads take about half an
hour; ``--seeds`` and ``--workload`` shorten it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import report

HERE = Path(__file__).resolve().parent


def one_set(spec: dict, workload: str, seeds: range) -> dict[str, list[float]]:
    """End-to-end metric -> its value on each seed."""
    values: dict[str, list[float]] = {metric["name"]: [] for metric in spec["end_to_end"]}
    for seed in seeds:
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", "0",
        ]  # fmt: skip
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"spread: {workload} seed {seed}: {result['failed']} rows failed")
        for name, got in result["metrics"].items():
            values[name].append(got["value"])
    return values


def main(argv: list[str] | None = None) -> int:
    with open(HERE.parent / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N per set (default 10)")
    args = parser.parse_args(argv)

    breaches = []
    for workload in args.workload or names:
        first, second = (one_set(spec, workload, range(1, args.seeds + 1)) for _ in range(2))
        print(f"== {workload}: {args.seeds} seeds, two sets ==")
        print(
            f"{'metric':<24}{'bound':>7}{'spread 1':>10}{'spread 2':>10}"
            f"{'median 1':>13}{'median 2':>13}{'worse by':>10}"
        )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            medians = [statistics.median(values[name]) for values in (first, second)]
            print(
                f"{name:<24}{metric['bound']:>7}{report.spread(first[name]):>10.4f}"
                f"{report.spread(second[name]):>10.4f}{medians[0]:>13.6g}{medians[1]:>13.6g}"
                f"{report.worse_by(*medians, metric['better']):>10.4f}"
            )
        breaches += [
            f"{workload}: {line}"
            for line in report.check_bounds(first, second, spec["end_to_end"])
        ]
    for line in breaches:
        print(f"spread: {line}", file=sys.stderr)
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
