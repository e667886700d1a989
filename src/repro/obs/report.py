"""Self-contained static HTML reports from recorded traces.

``omega-sim report RUN.jsonl [MORE.jsonl ...]`` renders one HTML file —
inline CSS and inline SVG only, no external assets or scripts — so the
report can be committed, attached to CI artifacts, or opened from a
tarball years later and still work offline.

Per trace it shows the scheduler rollup and wait-time percentile tables
(p50/p90/p99/p99.9 merged from ``run.metrics`` histogram states), line
charts of the ``timeline.*`` series recorded by
:mod:`repro.obs.timeline` (cell utilization, pending queue depth,
per-scheduler busy fraction and conflict rate), and a binned conflict
timeline that works even for traces recorded without
``--timeline-interval``. With several traces it prepends a side-by-side
comparison (per-scheduler table plus overlaid utilization chart).
"""

from __future__ import annotations

import html
import math
from typing import Any, Iterable, Sequence

from repro.obs.summary import TraceSummary, summarize_file

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
)

_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; max-width: 60em;
       color: #1a1a2e; padding: 0 1em; }
h1 { font-size: 1.5em; border-bottom: 2px solid #1f77b4; padding-bottom: .3em; }
h2 { font-size: 1.2em; margin-top: 2em; }
h3 { font-size: 1em; margin-bottom: .3em; }
p.meta { color: #555; margin-top: 0; }
table { border-collapse: collapse; margin: .5em 0 1.5em; }
th, td { border: 1px solid #ccd; padding: .25em .6em; text-align: right;
         font-variant-numeric: tabular-nums; }
th { background: #eef2f7; }
td:first-child, th:first-child { text-align: left; }
svg { margin: .25em 0 1em; }
p.note { color: #777; font-style: italic; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: Any) -> str:
    if value is None:
        return "–"
    if isinstance(value, float):
        if not math.isfinite(value):
            return "–"
        return f"{value:.4g}"
    return str(value)


def _table(rows: Sequence[dict[str, Any]], columns: Sequence[str] | None = None) -> str:
    if not rows:
        return '<p class="note">no data</p>'
    columns = list(columns if columns is not None else rows[0].keys())
    head = "".join(f"<th>{_esc(col)}</th>" for col in columns)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(_fmt(row.get(col)))}</td>" for col in columns) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


# ----------------------------------------------------------------------
# Inline SVG line charts
# ----------------------------------------------------------------------
def _ticks(low: float, high: float, count: int = 5) -> list[float]:
    if high <= low:
        return [low]
    step = (high - low) / (count - 1)
    return [low + step * i for i in range(count)]


def _svg_line_chart(
    title: str,
    series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
    *,
    y_label: str = "",
    width: int = 720,
    height: int = 240,
    y_min: float = 0.0,
    y_max: float | None = None,
) -> str:
    """One line chart as an inline ``<svg>`` element.

    ``series`` is ``[(legend label, [(x, y), ...]), ...]``; non-finite
    points are dropped, and a chart with no finite points renders a
    "no data" placeholder instead of empty axes.
    """
    clean: list[tuple[str, list[tuple[float, float]]]] = []
    for label, points in series:
        finite = [
            (float(x), float(y))
            for x, y in points
            if math.isfinite(float(x)) and math.isfinite(float(y))
        ]
        if finite:
            clean.append((label, finite))

    if not clean:
        return (
            f'<svg width="{width}" height="{height}" role="img" '
            f'viewBox="0 0 {width} {height}" aria-label="{_esc(title)}">'
            f'<text x="12" y="20" font-size="13" font-weight="bold">{_esc(title)}</text>'
            f'<text x="{width / 2:.0f}" y="{height / 2:.0f}" text-anchor="middle" '
            f'fill="#999" font-size="13">no data</text></svg>'
        )

    left, right, top, bottom = 60, 14, 30, 34
    plot_w = width - left - right
    plot_h = height - top - bottom
    xs = [x for _, points in clean for x, _ in points]
    ys = [y for _, points in clean for _, y in points]
    x_low, x_high = min(xs), max(xs)
    if x_high <= x_low:
        x_high = x_low + 1.0
    y_low = min(y_min, min(ys))
    y_high = y_max if y_max is not None else max(ys) * 1.05
    if y_high <= y_low:
        y_high = y_low + 1.0

    def px(x: float) -> float:
        return left + (x - x_low) / (x_high - x_low) * plot_w

    def py(y: float) -> float:
        return top + plot_h - (y - y_low) / (y_high - y_low) * plot_h

    parts = [
        f'<svg width="{width}" height="{height}" role="img" '
        f'viewBox="0 0 {width} {height}" aria-label="{_esc(title)}">',
        f'<text x="12" y="20" font-size="13" font-weight="bold">{_esc(title)}</text>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#ccd"/>',
    ]
    for tick in _ticks(y_low, y_high):
        y = py(tick)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" '
            'stroke="#eef" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="11" fill="#555">{tick:.3g}</text>'
        )
    for tick in _ticks(x_low, x_high):
        x = px(tick)
        parts.append(
            f'<text x="{x:.1f}" y="{top + plot_h + 16}" text-anchor="middle" '
            f'font-size="11" fill="#555">{tick:.4g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.0f}" y="{height - 4}" text-anchor="middle" '
        'font-size="11" fill="#555">simulated time (s)</text>'
    )
    if y_label:
        parts.append(
            f'<text x="14" y="{top + plot_h / 2:.0f}" font-size="11" fill="#555" '
            f'transform="rotate(-90 14 {top + plot_h / 2:.0f})" '
            f'text-anchor="middle">{_esc(y_label)}</text>'
        )
    for index, (label, points) in enumerate(clean):
        color = _PALETTE[index % len(_PALETTE)]
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in points)
        if len(points) == 1:
            x, y = points[0]
            parts.append(
                f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="2.5" fill="{color}"/>'
            )
        else:
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
        legend_x = left + plot_w - 150
        legend_y = top + 8 + 14 * index
        parts.append(
            f'<rect x="{legend_x}" y="{legend_y - 8}" width="10" height="10" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 14}" y="{legend_y + 1}" font-size="11" '
            f'fill="#333">{_esc(label)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


# ----------------------------------------------------------------------
# Report sections
# ----------------------------------------------------------------------
def _series_from(
    samples: Iterable[dict[str, Any]], key: str
) -> list[tuple[float, float]]:
    points = []
    for sample in samples:
        t = sample.get("t")
        value = sample.get(key)
        if t is None or value is None:
            continue
        points.append((float(t), float(value)))
    return points


def _trace_charts(summary: TraceSummary) -> list[str]:
    charts = []
    if summary.timeline_cell:
        charts.append(
            _svg_line_chart(
                "Cell utilization",
                [
                    ("cpu", _series_from(summary.timeline_cell, "cpu_util")),
                    ("mem", _series_from(summary.timeline_cell, "mem_util")),
                ],
                y_label="fraction",
                y_max=1.0,
            )
        )
        charts.append(
            _svg_line_chart(
                "Pending jobs (all schedulers)",
                [("pending", _series_from(summary.timeline_cell, "pending"))],
                y_label="jobs",
            )
        )
        faults = _series_from(summary.timeline_cell, "active_faults")
        if any(value for _, value in faults):
            charts.append(
                _svg_line_chart(
                    "Active faults",
                    [("faults", faults)],
                    y_label="count",
                )
            )
    if summary.timeline_sched:
        per_sched = sorted(summary.timeline_sched.items())
        charts.append(
            _svg_line_chart(
                "Scheduler busy fraction (per sampling window)",
                [
                    (name, _series_from(samples, "busy_frac"))
                    for name, samples in per_sched
                ],
                y_label="busy fraction",
                y_max=1.0,
            )
        )
        charts.append(
            _svg_line_chart(
                "Conflict rate (conflicts/s, per sampling window)",
                [
                    (name, _series_from(samples, "conflict_rate"))
                    for name, samples in per_sched
                ],
                y_label="conflicts/s",
            )
        )
        charts.append(
            _svg_line_chart(
                "Scheduler queue depth",
                [
                    (name, _series_from(samples, "queue_depth"))
                    for name, samples in per_sched
                ],
                y_label="jobs",
            )
        )
    return charts


def _conflict_chart(summary: TraceSummary, bins: int = 24) -> str | None:
    names = [
        name
        for name in summary.scheduler_names()
        if summary.schedulers[name].txn_conflicted
    ]
    if not names:
        return None
    series = []
    for name in names:
        timeline = summary.conflict_timeline(name, bins=bins)
        series.append((name, [(start, float(count)) for start, count in timeline]))
    return _svg_line_chart(
        f"Conflicted commits per bin ({bins} bins)", series, y_label="conflicts"
    )


def _trace_section(label: str, summary: TraceSummary) -> str:
    parts = [f"<section><h2>{_esc(label)}</h2>"]
    parts.append(
        '<p class="meta">'
        f"{summary.records} records · {summary.runs or 1} run(s) · "
        f"max t={summary.max_t:.1f}s · "
        f"{summary.timeline_sample_count()} timeline samples</p>"
    )
    parts.append("<h3>Scheduler rollup</h3>")
    parts.append(_table(summary.scheduler_rows()))
    parts.append("<h3>Wait-time percentiles (seconds)</h3>")
    percentiles = summary.percentile_rows()
    if percentiles:
        parts.append(_table(percentiles))
    else:
        parts.append(
            '<p class="note">no run.metrics histograms in this trace '
            "(recorded before timeline support, or the run did not finish)</p>"
        )
    charts = _trace_charts(summary)
    if charts:
        parts.extend(charts)
    else:
        parts.append(
            '<p class="note">no timeline samples — record with '
            "<code>--timeline-interval SECONDS</code> to chart utilization, "
            "busy fraction and conflict rate over simulated time</p>"
        )
    conflict_chart = _conflict_chart(summary)
    if conflict_chart is not None:
        parts.append(conflict_chart)
    parts.append("</section>")
    return "".join(parts)


def _comparison_section(traces: Sequence[tuple[str, TraceSummary]]) -> str:
    rows = []
    for label, summary in traces:
        for row in summary.scheduler_rows():
            rows.append({"trace": label, **row})
    utilization = [
        (label, _series_from(summary.timeline_cell, "cpu_util"))
        for label, summary in traces
        if summary.timeline_cell
    ]
    parts = ["<section><h2>Comparison</h2>"]
    parts.append("<h3>Per-scheduler rollup, all traces</h3>")
    parts.append(_table(rows))
    if utilization:
        parts.append(
            _svg_line_chart(
                "CPU utilization, all traces",
                utilization,
                y_label="fraction",
                y_max=1.0,
            )
        )
    parts.append("</section>")
    return "".join(parts)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def generate_report(traces: Sequence[tuple[str, TraceSummary]]) -> str:
    """Render one or more (label, summary) pairs as a full HTML page."""
    if not traces:
        raise ValueError("generate_report needs at least one trace")
    title = "omega-sim report"
    body = [f"<h1>{_esc(title)}</h1>"]
    if len(traces) > 1:
        body.append(_comparison_section(traces))
    for label, summary in traces:
        body.append(_trace_section(label, summary))
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style>\n"
        "</head><body>\n" + "\n".join(body) + "\n</body></html>\n"
    )


def write_report(trace_paths: Sequence[str], output_path: str) -> int:
    """Summarize JSONL traces into an HTML report file; returns bytes written."""
    import os

    from repro.recovery.artifacts import atomic_write_text

    traces = [(os.path.basename(path), summarize_file(path)) for path in trace_paths]
    document = generate_report(traces)
    atomic_write_text(output_path, document)
    return len(document.encode("utf-8"))
