"""Export JSONL traces to the Chrome/Perfetto trace-event format.

``omega-sim perfetto RUN.jsonl`` converts any trace recorded with
``--trace`` into a JSON document that opens directly in
`ui.perfetto.dev <https://ui.perfetto.dev>`_ (or ``chrome://tracing``):

* each simulation run becomes a *process* (``pid``), named from its
  ``run.start`` record (architecture, cluster, seed);
* each scheduler becomes a *thread* (``tid``) inside its run, plus a
  ``run`` thread for run-level records;
* each ``sched.attempt`` record becomes a duration ("X") event from
  its think start ``t0`` to its end ``t``, every other record an
  instant ("i") event;
* ``timeline.*`` samples (see :mod:`repro.obs.timeline`) become counter
  ("C") tracks — cell utilization, pending jobs, per-scheduler busy
  fraction / queue depth / conflict rate.

Timestamps are *simulated* microseconds (the trace-event unit), so the
Perfetto timeline reads in simulated time.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.summary import json_safe

#: Simulated seconds -> trace-event microseconds.
_US = 1_000_000.0

#: The per-run thread that hosts run-level (scheduler-less) records.
_RUN_TRACK = "run"


class _Tracks:
    """Deterministic pid/tid assignment in first-appearance order."""

    def __init__(self) -> None:
        self.metadata: list[dict[str, Any]] = []
        self._tids: dict[tuple[int, str], int] = {}
        self._next_tid: dict[int, int] = {}
        self._named_pids: set[int] = set()

    def name_process(self, pid: int, name: str) -> None:
        if pid in self._named_pids:
            return
        self._named_pids.add(pid)
        self.metadata.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )

    def tid(self, pid: int, track: str) -> int:
        self.name_process(pid, f"run {pid}")
        key = (pid, track)
        tid = self._tids.get(key)
        if tid is None:
            tid = self._next_tid.get(pid, 0)
            self._next_tid[pid] = tid + 1
            self._tids[key] = tid
            self.metadata.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return tid


def _ts(t: Any) -> float:
    return float(t) * _US if t is not None else 0.0


def export_perfetto(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Convert trace records into a trace-event JSON document."""
    tracks = _Tracks()
    events: list[dict[str, Any]] = []
    pid = 0

    def counter(name: str, t: Any, values: dict[str, Any]) -> None:
        events.append(
            {
                "ph": "C",
                "name": name,
                "pid": pid,
                "tid": tracks.tid(pid, _RUN_TRACK),
                "ts": _ts(t),
                "args": values,
            }
        )

    for record in records:
        name = record.get("name", "?")
        fields = record.get("fields") or {}
        t = record.get("t")
        sched = record.get("sched")

        if name == "run.start":
            pid += 1
            label = " ".join(
                str(fields[key])
                for key in ("architecture", "cluster")
                if fields.get(key) is not None
            )
            seed = fields.get("seed")
            if seed is not None:
                label = f"{label} seed={seed}" if label else f"seed={seed}"
            tracks.name_process(pid, f"run {pid}: {label}" if label else f"run {pid}")
            continue

        if name == "timeline.cell":
            counter(
                "cell utilization",
                t,
                {
                    "cpu": fields.get("cpu_util", 0.0),
                    "mem": fields.get("mem_util", 0.0),
                },
            )
            counter("pending jobs", t, {"pending": fields.get("pending", 0)})
            counter(
                "active faults", t, {"faults": fields.get("active_faults", 0)}
            )
            continue
        if name == "timeline.sched" and sched is not None:
            counter(
                f"{sched} busy_frac", t, {"busy_frac": fields.get("busy_frac", 0.0)}
            )
            counter(
                f"{sched} queue_depth",
                t,
                {"queue_depth": fields.get("queue_depth", 0)},
            )
            counter(
                f"{sched} conflict_rate",
                t,
                {"conflict_rate": fields.get("conflict_rate", 0.0)},
            )
            continue

        track = sched if sched is not None else _RUN_TRACK
        tid = tracks.tid(pid, track)
        base = {
            "name": name,
            "pid": pid,
            "tid": tid,
            "args": {
                key: value
                for key, value in (
                    ("job", record.get("job")),
                    ("attempt", record.get("attempt")),
                    *fields.items(),
                )
                if value is not None
            },
        }
        if name == "sched.attempt" and fields.get("t0") is not None and t is not None:
            events.append(
                {
                    **base,
                    "ph": "X",
                    "ts": _ts(fields["t0"]),
                    "dur": max(0.0, (float(t) - float(fields["t0"])) * _US),
                }
            )
        else:
            events.append({**base, "ph": "i", "ts": _ts(t), "s": "t"})

    # Stable per-track time order: Perfetto tolerates global disorder,
    # but sorted tracks make the export testable and diff-friendly.
    events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    return json_safe(
        {
            "traceEvents": tracks.metadata + events,
            "displayTimeUnit": "ms",
        }
    )


def export_file(input_path: str, output_path: str) -> int:
    """Convert a JSONL trace file; returns the trace-event count."""
    import json

    from repro.obs.export import read_trace
    from repro.recovery.artifacts import atomic_write_text

    document = export_perfetto([record for _, record in read_trace(input_path)])
    atomic_write_text(output_path, json.dumps(document, separators=(",", ":")) + "\n")
    return len(document["traceEvents"])
