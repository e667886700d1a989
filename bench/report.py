"""Arithmetic of the benchmark, free of I/O: aggregation over
repetitions, golden-row comparison, spreads and bounds.

Kept apart from ``run.py`` so ``selftest.py`` can check it on made-up
numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Iterable, Sequence


def summarize(values: Sequence[float]) -> dict:
    """Median, min, max, sample count and every value of one metric's
    repetitions.

    A run holds 2-4 repetitions, so no percentile has ten samples
    beyond it: the extremes are given in place of a tail percentile.
    """
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": list(values),
    }


def calibrated_sum(
    parts_by_rep: Sequence[Sequence[float]], slowdowns_by_rep: Sequence[Sequence[float]]
) -> float:
    """Calibrated host seconds of one repetition, from several.

    Every repetition of a seed does the same work, part for part. Each
    part's raw seconds are divided by the host's slowdown while it ran
    (calibrate.py); then each part is the median over the repetitions,
    and the parts add up.
    """
    calibrated = [
        [seconds / slowdown for seconds, slowdown in zip(parts, slowdowns, strict=True)]
        for parts, slowdowns in zip(parts_by_rep, slowdowns_by_rep, strict=True)
    ]
    return sum(map(statistics.median, zip(*calibrated, strict=True)))


def mean_field(rows: Iterable[dict], field: str) -> float:
    """Mean of one simulated statistic over a workload's rows.

    Rows where it is undefined (NaN: nothing of that kind was
    scheduled in a short sweep point) or absent (a failed row) are
    left out; NaN if none is left.
    """
    values = [
        row[field]
        for row in rows
        if isinstance(row.get(field), (int, float)) and not math.isnan(row[field])
    ]
    return sum(values) / len(values) if values else float("nan")


def canonical(row: dict) -> str:
    """One row as text; floats print by ``repr``, so equal text means
    equal to the last bit."""
    return json.dumps(row, sort_keys=True)


def rows_digest(rows: Sequence[dict]) -> str:
    return hashlib.sha256("\n".join(map(canonical, rows)).encode()).hexdigest()


def diff_rows(got: Sequence[dict], want: Sequence[dict]) -> dict[int, str]:
    """Index -> one-line reason for every row of ``got`` that differs
    from ``want`` in any field, by exact float repr."""
    failed: dict[int, str] = {}
    for index in range(max(len(got), len(want))):
        if index >= len(got):
            failed[index] = "row missing"
        elif index >= len(want):
            failed[index] = "row not expected"
        elif canonical(got[index]) != canonical(want[index]):
            fields = [
                f"{key} {got[index].get(key)!r} != {want[index].get(key)!r}"
                for key in sorted({*got[index], *want[index]})
                if repr(got[index].get(key)) != repr(want[index].get(key))
            ]
            failed[index] = "; ".join(fields)
    return failed


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median — how the driver judges whether a metric is steady."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative when it
    is better)."""
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def check_bounds(
    first: dict[str, Sequence[float]],
    second: dict[str, Sequence[float]],
    metrics: Sequence[dict],
) -> list[str]:
    """One line per breach when two sets of runs of one workload are
    held against the ``end_to_end`` entries of BENCHMARK.json: a spread
    wider than the bound (``setup_s`` excepted, as the driver does), or
    a second median worse than the first by more than the bound."""
    breaches = []
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        for label, values in (("first", first[name]), ("second", second[name])):
            if name != "setup_s" and spread(values) > bound:
                breaches.append(
                    f"{name}: spread of the {label} set {spread(values):.4f} > bound {bound}"
                )
        drift = worse_by(
            statistics.median(first[name]),
            statistics.median(second[name]),
            metric["better"],
        )
        if drift > bound:
            breaches.append(f"{name}: second median worse by {drift:.4f} > bound {bound}")
    return breaches
