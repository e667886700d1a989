"""One repetition of one workload, in a fresh process.

``run.py`` starts this once per repetition, one at a time, with a JSON
spec as the only argument, and reads one JSON object from the last line
of standard output. Times are host seconds, each given in *parts* that
do the same work in every repetition of a seed, with the host's slowdown
during each part (see calibrate.py), so that the parent can calibrate
the parts and take each one's median over the repetitions:

* ``setup_parts`` — from the moment the parent spawned this process to
  worlds built: interpreter start, ``import repro``, then one part per
  point for its config and ``build()`` with the initial fill and, on
  ``hifi_replay``, trace synthesis.
* ``run_parts`` — first event to finalized, invariant-checked result
  rows: each point's event loop cut at fixed simulated times, the last
  part of a point taking in its row.

With ``trace`` set, the span shims of ``spans.py`` are installed before
anything is built, the per-span statistics are returned and the raw
spans written to ``out/<workload>.trace.json``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"


def main(spec: dict) -> dict:
    begin = time.perf_counter()
    # Interpreter start-up, which perf_counter cannot see from in here.
    startup_s = time.time() - spec["spawned"]

    import workloads

    import_s = time.perf_counter() - begin
    from calibrate import Stopwatch, calibrate

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        calibrate = tracer.wrap(calibrate, "bench.calibrate")
    span = tracer.span if tracer else (lambda name: nullcontext())

    workload = workloads.WORKLOADS[spec["workload"]]
    horizon = workload.horizon / (10 if spec["quick"] else 1)
    rows = []
    events = peak_queue_depth = 0
    with span("bench.child"):
        watch = Stopwatch(calibrate)
        watch.add("setup", startup_s)
        watch.add("setup", import_s)
        points = workload.points(spec["seed"], horizon)
        for index, point in enumerate(points):
            if tracer:
                tracer.run_id = index
                tracer.in_setup = True
            try:
                with span("experiments.build"):
                    world = point.build()
                if tracer:
                    tracer.in_setup = False
                    world.sim.profiler = tracer
                watch.lap("setup")
                for cut in range(1, workload.slices):
                    with span("sim.loop"):
                        world.sim.run(until=horizon * cut / workload.slices)
                    watch.lap("run")
                with span("sim.loop"):
                    result = world.run()
                with span("metrics.summarize"):
                    row = point.finish(world, result)
                events += result.events_processed
                peak_queue_depth = max(peak_queue_depth, world.sim.peak_queue_depth)
            except Exception as exc:  # a failed point is a failed row, not a failed run
                traceback.print_exc()
                row = {**point.extra, "error": repr(exc)}
            watch.lap("run")
            rows.append(row)
    out = {
        "setup_parts": watch.parts["setup"],
        "setup_slowdowns": watch.slowdowns("setup"),
        "run_parts": watch.parts["run"],
        "run_slowdowns": watch.slowdowns("run"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "events": events,
        "peak_queue_depth": peak_queue_depth,
        "rows": rows,
        "horizon_s": horizon,
        "horizon_divisor": workloads.HORIZON_DIVISOR,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer:
        out["spans"] = tracer.stats
        out["counts"] = tracer.counts
        out["missing"] = tracer.missing
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"{workload.name}.trace.json", "w") as handle:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "id", "parent_id", "run_id"],
                    "spans": tracer.raw,
                    "stats_columns": ["calls", "total_s", "self_s"],
                    "stats": tracer.stats,
                    "counts": tracer.counts,
                },
                handle,
            )
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
