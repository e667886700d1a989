"""The kill-and-resume determinism gate.

End-to-end enforcement of the checkpoint/resume contract (``python -m
repro.analysis.determinism --kill-resume``): run a sweep three times
through the real ``omega-sim`` CLI —

1. **reference** — uninterrupted, ``--output`` + ``--trace``;
2. **victim** — same run with ``--checkpoint``, SIGKILLed from outside
   once a configurable number of points has hit the checkpoint log
   (the harshest crash: no handlers, no atexit, mid-whatever-it-was-
   doing);
3. **resumed** — ``--checkpoint DIR --resume``, which must skip the
   victim's completed points and finish the rest —

then assert that the resumed run's result table is *byte-identical* to
the reference's, and that its stitched JSONL trace matches record-for-
record once wall-clock fields (``wall_ms``) and ``recovery.*`` incident
records are set aside. Everything the three runs produced is left in
``artifacts_dir`` for post-mortems (CI uploads it on failure).

Subprocesses + wall-clock polling are intentional here: the gate's
entire point is surviving a real SIGKILL, which an in-process harness
cannot fake. ``repro/recovery/`` is allowlisted by the ``wall_clock`` check.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.analysis.determinism import DeterminismReport, diff_traces
from repro.obs.export import read_jsonl

#: Default number of durably-logged points after which the victim dies.
DEFAULT_KILL_AFTER = 2

#: Wall-seconds to wait for each subprocess / for the kill threshold.
DEFAULT_TIMEOUT = 600.0


def _cli_command(
    experiment: str,
    seed: int,
    scale: float,
    hours: float,
    timeline_interval: float | None = None,
) -> list[str]:
    command = [
        sys.executable,
        "-m",
        "repro.experiments.cli",
        experiment,
        "--scale",
        str(scale),
        "--hours",
        str(hours),
        "--seed",
        str(seed),
    ]
    if timeline_interval is not None:
        command += ["--timeline-interval", str(timeline_interval)]
    return command


def _subprocess_env() -> dict[str, str]:
    """The gate's own import path, propagated to the CLI subprocesses."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src_dir, env.get("PYTHONPATH")) if part
    )
    return env


def _count_log_records(log_path: Path) -> int:
    """Complete (newline-terminated) records currently in the point log."""
    try:
        return log_path.read_bytes().count(b"\n")
    except OSError:
        return 0


def _strip_recovery(records: list[dict]) -> list[dict]:
    """Drop ``recovery.*`` incident records before trace comparison.

    A healthy resume emits none, but a retried worker crash during the
    gate (e.g. an OOM-killed point that succeeded on attempt two) is a
    recovery *success*, not a determinism failure.
    """
    return [
        record
        for record in records
        if not str(record.get("name", "")).startswith("recovery.")
    ]


def run_kill_resume_gate(
    experiment: str = "fig8",
    seed: int = 0,
    scale: float = 0.05,
    hours: float = 0.3,
    artifacts_dir: str | Path = "kill-resume-artifacts",
    kill_after: int = DEFAULT_KILL_AFTER,
    timeout: float = DEFAULT_TIMEOUT,
    timeline_interval: float | None = None,
) -> DeterminismReport:
    """Run the reference/victim/resumed trio and diff the outcomes."""
    artifacts = Path(artifacts_dir)
    artifacts.mkdir(parents=True, exist_ok=True)
    checkpoint = artifacts / "checkpoint"
    if checkpoint.exists():
        # An earlier gate's checkpoint would pass the kill threshold
        # before the victim starts, and be resumed in place of its own.
        shutil.rmtree(checkpoint)
    ref_out, ref_trace = artifacts / "ref.json", artifacts / "ref.jsonl"
    vic_out, vic_trace = artifacts / "victim.json", artifacts / "victim.jsonl"
    res_out, res_trace = artifacts / "resumed.json", artifacts / "resumed.jsonl"
    base = _cli_command(experiment, seed, scale, hours, timeline_interval)
    env = _subprocess_env()
    divergences: list[str] = []

    def run(extra: list[str], label: str) -> None:
        result = subprocess.run(
            base + extra,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        (artifacts / f"{label}.log").write_text(result.stdout + result.stderr)
        if result.returncode != 0:
            raise RuntimeError(
                f"{label} run exited {result.returncode}; see "
                f"{artifacts / (label + '.log')}\n{result.stderr.strip()}"
            )

    # 1. The uninterrupted reference.
    run(["--output", str(ref_out), "--trace", str(ref_trace)], "reference")

    # 2. The victim: checkpointed, SIGKILLed once kill_after points are
    #    durably logged.
    victim = subprocess.Popen(
        base
        + [
            "--checkpoint",
            str(checkpoint),
            "--output",
            str(vic_out),
            "--trace",
            str(vic_trace),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    log_path = checkpoint / "points.jsonl"
    deadline = time.monotonic() + timeout
    killed = False
    while time.monotonic() < deadline:
        if victim.poll() is not None:
            break
        if _count_log_records(log_path) >= kill_after:
            victim.send_signal(signal.SIGKILL)
            killed = True
            break
        time.sleep(0.05)
    victim.wait(timeout=timeout)
    if not killed:
        if victim.returncode == 0:
            divergences.append(
                f"victim completed all points before reaching the kill "
                f"threshold ({kill_after}); the gate did not exercise a "
                "mid-run crash — lower --kill-after or enlarge the sweep"
            )
        else:
            divergences.append(
                f"victim exited {victim.returncode} before the kill "
                "threshold was reached"
            )
    completed_at_kill = _count_log_records(log_path)

    # 3. Resume from the victim's checkpoint.
    if killed:
        run(
            [
                "--checkpoint",
                str(checkpoint),
                "--resume",
                "--output",
                str(res_out),
                "--trace",
                str(res_trace),
            ],
            "resumed",
        )

        # The result table must be byte-identical, atomically written,
        # hash and all.
        ref_bytes = ref_out.read_bytes()
        res_bytes = res_out.read_bytes()
        if ref_bytes != res_bytes:
            ref_doc = json.loads(ref_bytes)
            res_doc = json.loads(res_bytes)
            detail = (
                "rows differ"
                if ref_doc.get("rows") != res_doc.get("rows")
                else "envelopes differ"
            )
            divergences.append(
                f"resumed result table is not byte-identical to the "
                f"reference ({detail}): {ref_out} vs {res_out}"
            )
        if vic_out.exists():
            divergences.append(
                f"victim wrote a result table despite being killed "
                f"mid-run ({vic_out}); output writes are supposed to be "
                "atomic-at-the-end"
            )

    trace_ref = _strip_recovery(read_jsonl(str(ref_trace)))
    trace_res = (
        _strip_recovery(read_jsonl(str(res_trace)))
        if killed and res_trace.exists()
        else []
    )
    if killed:
        divergences.extend(diff_traces(trace_ref, trace_res))
    report = DeterminismReport(
        records_a=len(trace_ref),
        records_b=len(trace_res),
        divergences=divergences,
    )
    (artifacts / "report.txt").write_text(
        report.render()
        + f"\npoints durably checkpointed at kill: {completed_at_kill}\n"
    )
    return report
