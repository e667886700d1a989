"""Sweep execution: :func:`execute_map` runs every figure's points.

The experiment driver (:func:`repro.experiments.registry.run`) calls it
with its ``--jobs`` value; results come back in item order. Every point
is self-seeded, so where it runs, and how often, cannot change its row.

Where points run is decided once, over the points left to run: inline
when ``jobs <= 1`` or one point is left, else in one short-lived worker
process per point, ``jobs`` at a time, each with its own pipe. A
timeout can only be enforced on a worker, so ``point_timeout`` puts
every point in one, even at ``--jobs 1``. A worker that dies (SIGKILL,
OOM, segfault) or overruns the timeout loses only its own point, which
is retried; after :data:`ATTEMPTS` tries the sweep fails with
:class:`PointFailure`. A point that *raises* is a result of the code
under test, not an incident: the exception crosses the pipe and is
re-raised here, without a retry. Incidents are
``recovery.point.crash|timeout`` trace events; a healthy run emits
none. No worker outlives :func:`execute_map`, however it ends.

With a :class:`~repro.recovery.checkpoint.CheckpointStore`
(``--checkpoint DIR``), each completed point is durably appended as it
finishes, and the points the store already holds (``--resume``) are
skipped, their stored rows and trace records used instead. A sweep's
structure is a pure function of the arguments in the run manifest;
records are keyed by index, and a resume is refused when a stored
label no longer matches the recomputed one.

Trace stitching: a point is called as ``fn(item, recorder)``. When the
caller's recorder is on and points run in workers or are checkpointed,
each point records on a private recorder, and the records are replayed
into the caller's in item order after the sweep, so a parallel or
resumed trace equals a serial one apart from wall-clock fields. The
wall-clock reads here (timeouts) are allowlisted by the ``wall_clock``
check in ``tests/test_source_invariants.py``.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Sequence

from repro.obs.recorder import NULL_RECORDER, TraceRecorder
from repro.recovery.checkpoint import CheckpointStore, RecoveryError

__all__ = ["ATTEMPTS", "PointFailure", "execute_map", "resolve_jobs"]

#: Tries per point for worker crashes and timeouts before the sweep
#: fails with :class:`PointFailure`.
ATTEMPTS = 3


class PointFailure(RuntimeError):
    """A sweep point exhausted its attempts. Completed points are kept
    (durably, when checkpointing), so ``--resume`` repeats only the
    failed point and its unfinished siblings."""


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: None/0 means one worker per CPU."""
    if jobs is None or jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _plan_resume(
    store: CheckpointStore,
    n: int,
    labels: Sequence[str],
) -> tuple[list[int], dict[int, dict[str, Any]]]:
    """Split a sweep into (to-run indices, already-completed records)."""
    stale = [index for index in store.completed if index >= n]
    if stale:
        raise RecoveryError(
            f"{store.directory}: cannot resume: checkpoint holds point "
            f"{stale[0]} beyond this run's sweep size {n}; the "
            "sweep structure changed"
        )
    todo: list[int] = []
    done: dict[int, dict[str, Any]] = {}
    for index in range(n):
        record = store.completed.get(index)
        if record is None:
            todo.append(index)
            continue
        if record.get("label") != labels[index]:
            raise RecoveryError(
                f"{store.directory}: cannot resume: point "
                f"{index} was recorded as {record.get('label')!r} but this "
                f"run computes {labels[index]!r}; the sweep structure "
                "changed"
            )
        done[index] = record
    return todo, done


def _encode_error(exc: Exception) -> Exception:
    """The exception itself when picklable, else a summary stand-in."""
    try:
        pickle.dumps(exc)
    except Exception:
        # picklability probe; the original failure is preserved in the
        # summary re-raised by the parent
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _run(
    fn: Callable[[Any, Any], Any], item: Any, capture: bool, recorder
) -> tuple[Any, list[dict] | None]:
    """Run one point on ``recorder``, or with ``capture`` on a private
    in-memory recorder whose records come back with the result."""
    if not capture:
        return fn(item, recorder), None
    private = TraceRecorder()
    return fn(item, private), private.records


def _child_main(fn: Callable[[Any, Any], Any], item: Any, capture: bool, conn) -> None:
    """Worker body: run one point, ship (status, value, records) back.
    The parent's recorder never reaches a worker."""
    try:
        payload = ("ok", *_run(fn, item, capture, NULL_RECORDER))
    except Exception as exc:
        # worker boundary: the failure crosses the pipe and is re-raised
        # by execute_map in the parent
        payload = ("err", _encode_error(exc), None)
    try:
        conn.send(payload)
    finally:
        conn.close()


@dataclass
class _Running:
    index: int
    attempt: int
    proc: Any
    deadline: float | None


def _reap(conn, task: _Running) -> None:
    task.proc.kill()
    task.proc.join()
    conn.close()


def _run_in_workers(
    fn: Callable[[Any, Any], Any],
    items: list[Any],
    todo: list[int],
    jobs: int,
    point_timeout: float | None,
    capture: bool,
    finish: Callable[[int, Any, list[dict] | None], None],
    labels: Sequence[str],
    recorder,
) -> None:
    """Run the points ``todo`` in workers, ``jobs`` at a time, handing
    each result to ``finish`` as it completes."""
    mp = get_context()
    pending: deque[tuple[int, int]] = deque((index, 1) for index in todo)
    running: dict[Any, _Running] = {}

    def spawn(index: int, attempt: int) -> None:
        parent_conn, child_conn = mp.Pipe(duplex=False)
        proc = mp.Process(
            target=_child_main, args=(fn, items[index], capture, child_conn)
        )
        proc.start()
        # Close the parent's copy of the write end so worker death
        # surfaces as EOF on the read end.
        child_conn.close()
        deadline = None if point_timeout is None else time.monotonic() + point_timeout
        running[parent_conn] = _Running(index, attempt, proc, deadline)

    def retry(task: _Running, kind: str) -> None:
        if recorder.enabled:
            recorder.event(
                f"recovery.point.{kind}", label=labels[task.index], attempt=task.attempt
            )
        if task.attempt >= ATTEMPTS:
            raise PointFailure(
                f"sweep point {labels[task.index]!r} (index {task.index}) "
                f"failed after {task.attempt} attempt(s); last incident: "
                f"{kind}. Completed points are preserved"
                " (resume with --checkpoint/--resume)."
            )
        pending.append((task.index, task.attempt + 1))

    try:
        while pending or running:
            while pending and len(running) < jobs:
                spawn(*pending.popleft())
            timeout = None
            if point_timeout is not None:
                nearest = min(task.deadline for task in running.values())
                timeout = max(0.0, nearest - time.monotonic())
            for conn in _connection_wait(list(running), timeout=timeout):
                task = running.pop(conn)
                try:
                    payload = conn.recv()
                except (EOFError, OSError):
                    payload = None  # died without reporting: a crash
                conn.close()
                task.proc.join()
                if payload is None:
                    retry(task, "crash")
                elif payload[0] == "ok":
                    finish(task.index, payload[1], payload[2])
                else:
                    raise payload[1]
            if point_timeout is not None:
                now = time.monotonic()
                for conn, task in list(running.items()):
                    if now >= task.deadline:
                        del running[conn]
                        _reap(conn, task)
                        retry(task, "timeout")
    finally:
        for conn, task in running.items():
            _reap(conn, task)


def execute_map(
    fn: Callable[[Any, Any], Any],
    items: Sequence[Any],
    jobs: int | None = 1,
    labels: Sequence[str] | None = None,
    store: CheckpointStore | None = None,
    point_timeout: float | None = None,
    recorder=NULL_RECORDER,
) -> list[Any]:
    """Map ``fn(item, recorder)`` over ``items``; results in item order.

    ``jobs`` goes through :func:`resolve_jobs`. Completed points are
    appended to ``store`` (when given), and the points it already holds
    are skipped. ``point_timeout`` (wall seconds, positive and finite)
    runs every point in a worker. ``fn`` and each item must be picklable
    (``fn`` a module-level function) whenever points run in workers.
    """
    jobs = resolve_jobs(jobs)
    if point_timeout is not None and not 0 < point_timeout < math.inf:
        raise ValueError(f"point_timeout must be positive and finite, got {point_timeout}")
    items = list(items)
    n = len(items)
    if labels is None:
        labels = [str(index) for index in range(n)]
    elif len(labels) != n:
        raise ValueError(f"got {len(labels)} labels for {n} items")

    if store is not None and store.completed:
        todo, done = _plan_resume(store, n, labels)
    else:
        todo, done = list(range(n)), {}
    results: list[Any] = [None] * n
    traces: list[list[dict[str, Any]] | None] = [None] * n
    for index, record in done.items():
        results[index] = record.get("row")
        traces[index] = record.get("trace")

    in_workers = point_timeout is not None or (jobs > 1 and len(todo) > 1)
    # Workers have no access to this recorder, and a checkpointed point
    # must store its records so a resumed run can re-emit them.
    capture = recorder.enabled and (in_workers or store is not None)

    def finish(index: int, result: Any, records: list[dict] | None) -> None:
        if store is not None:
            store.append(
                {"index": index, "label": labels[index], "row": result, "trace": records}
            )
        results[index] = result
        traces[index] = records

    if in_workers:
        _run_in_workers(
            fn, items, todo, jobs, point_timeout, capture, finish, labels, recorder
        )
    else:
        for index in todo:
            finish(index, *_run(fn, items[index], capture, recorder))

    if recorder.enabled and (capture or done):
        for records in traces:
            if records:
                recorder.replay(records)
    return results
