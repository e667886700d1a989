"""Supervised process-per-point execution of independent sweep points.

This replaces the bare ``multiprocessing.Pool.map`` fan-out that
``--jobs N`` used to ride on. A ``Pool`` gives no per-task control: one
crashed worker poisons the pool and aborts the whole sweep, and a hung
worker stalls it forever. The supervisor runs each point in its own
short-lived worker process connected by a pipe, and applies policy per
point:

* **per-point timeouts** — a worker that exceeds
  :attr:`SupervisorPolicy.point_timeout` wall-seconds is killed and its
  point retried;
* **bounded retry with deterministic backoff** — crashes and timeouts
  requeue the point up to :attr:`SupervisorPolicy.max_attempts` times,
  sleeping ``BACKOFF_BASE * 2**(attempt-1)`` seconds (capped at
  ``BACKOFF_CAP``) between attempts.
  Because every sweep point is self-seeded, a retried point produces
  exactly the row the original attempt would have;
* **crashed-worker salvage** — a worker that dies (SIGKILL, OOM,
  segfault) loses only its own in-flight point; completed results are
  kept and surviving points keep running;
* **graceful degradation** — after ``DEGRADE_AFTER`` incidents the
  pool is deemed unhealthy (e.g. the machine is out of memory for
  workers): remaining points run serially in the supervisor's own
  process.

A point that *raises* is different from one that crashes: exceptions
are deterministic results of the code under test, so they are shipped
back over the pipe and re-raised in the parent immediately (after
in-flight siblings are cancelled) rather than retried.

Incidents surface as ``recovery.*`` trace events on the recorder the
caller passes (when tracing is on); a healthy run emits none, so
supervised traces stay byte-identical to unsupervised ones.

Wall-clock reads here are intentional (timeouts and backoff are
real-time concepts, not simulated-time ones) and allowlisted by the
``wall_clock`` check in ``tests/test_source_invariants.py``.
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Sequence

from repro.obs.recorder import NULL_RECORDER, TraceRecorder


#: Deterministic retry backoff: ``BACKOFF_BASE * 2**(attempt-1)``
#: seconds, capped at ``BACKOFF_CAP``.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0
#: Pool incidents (crashes + timeouts) after which remaining points run
#: serially in-process instead of in workers.
DEGRADE_AFTER = 4


@dataclass(frozen=True)
class SupervisorPolicy:
    """The per-command knobs of supervised execution (see
    docs/RECOVERY.md)."""

    #: Wall-seconds one attempt of one point may take before it is
    #: killed and retried; ``None`` disables timeouts.
    point_timeout: float | None = None
    #: Total attempts per point for crashes/timeouts before the sweep
    #: fails with :class:`PointFailure`.
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise ValueError(
                f"point_timeout must be positive, got {self.point_timeout}"
            )


def backoff(attempt: int) -> float:
    """Seconds to wait before retry number ``attempt + 1``."""
    return min(BACKOFF_CAP, BACKOFF_BASE * (2.0 ** (attempt - 1)))


DEFAULT_POLICY = SupervisorPolicy()


class PointFailure(RuntimeError):
    """A sweep point exhausted its supervised attempts.

    Completed points were already delivered via ``on_result`` (and, when
    checkpointing, durably logged), so rerunning with ``--resume`` only
    repeats the failed point and its unfinished siblings.
    """


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
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
        # by the supervisor in the parent
        payload = ("err", _encode_error(exc), None)
    try:
        conn.send(payload)
    finally:
        conn.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
@dataclass
class _Running:
    index: int
    attempt: int
    proc: Any
    deadline: float | None


def supervised_map(
    fn: Callable[[Any, Any], Any],
    items: Sequence[Any],
    jobs: int = 1,
    policy: SupervisorPolicy = DEFAULT_POLICY,
    capture: bool = False,
    on_result: Callable[[int, Any, list[dict] | None], None] | None = None,
    labels: Sequence[str] | None = None,
    recorder=NULL_RECORDER,
) -> list[tuple[Any, list[dict] | None]]:
    """Map ``fn(item, recorder)`` over ``items`` under supervision.

    A point writes its records to a private recorder when ``capture``
    is set, to ``recorder`` when it runs inline, and nowhere in a worker
    otherwise; ``recovery.*`` incidents go to ``recorder``.

    Returns ``(result, captured_trace_records_or_None)`` per item, in
    item order. ``on_result(index, result, records)`` fires as each
    point completes (completion order — used for crash-durable
    checkpoint appends). With ``jobs <= 1`` (or a single item) and no
    ``point_timeout``, points run inline in this process: exceptions
    propagate unchanged, and trace capture still applies when
    requested. A timeout is only enforceable on a worker, so with one
    set every point runs in one, ``jobs`` at a time.

    ``fn`` must be a module-level (picklable-by-reference) function and
    each item must be picklable, exactly as for ``Pool.map`` before.
    """
    items = list(items)
    n = len(items)
    if labels is None:
        labels = [str(i) for i in range(n)]
    results: list[tuple[Any, list[dict] | None] | None] = [None] * n

    def finish(index: int, result: Any, records: list[dict] | None) -> None:
        results[index] = (result, records)
        if on_result is not None:
            on_result(index, result, records)

    if (jobs <= 1 or n <= 1) and policy.point_timeout is None:
        for index, item in enumerate(items):
            result, records = _run(fn, item, capture, recorder)
            finish(index, result, records)
        return results  # type: ignore[return-value]

    mp = get_context()
    pending: deque[tuple[int, int]] = deque((i, 1) for i in range(n))
    running: dict[Any, _Running] = {}
    incidents = 0
    degraded = False

    def spawn(index: int, attempt: int) -> None:
        parent_conn, child_conn = mp.Pipe(duplex=False)
        proc = mp.Process(
            target=_child_main, args=(fn, items[index], capture, child_conn)
        )
        proc.start()
        # Close the parent's copy of the write end so worker death
        # surfaces as EOF on the read end.
        child_conn.close()
        deadline = (
            None
            if policy.point_timeout is None
            else time.monotonic() + policy.point_timeout
        )
        running[parent_conn] = _Running(index, attempt, proc, deadline)

    def reap(conn, task: _Running) -> None:
        task.proc.kill()
        task.proc.join()
        conn.close()

    def kill_all() -> None:
        for conn, task in list(running.items()):
            reap(conn, task)
        running.clear()

    def requeue_or_fail(task: _Running, kind: str) -> None:
        nonlocal incidents
        incidents += 1
        if recorder.enabled:
            recorder.event(
                f"recovery.point.{kind}", label=labels[task.index], attempt=task.attempt
            )
        if task.attempt >= policy.max_attempts:
            kill_all()
            raise PointFailure(
                f"sweep point {labels[task.index]!r} (index {task.index}) "
                f"failed after {task.attempt} attempt(s); last incident: "
                f"{kind}. Completed points are preserved"
                " (resume with --checkpoint/--resume)."
            )
        delay = backoff(task.attempt)
        if delay > 0:
            time.sleep(delay)
        pending.append((task.index, task.attempt + 1))

    def degrade() -> None:
        nonlocal degraded
        degraded = True
        if recorder.enabled:
            recorder.event("recovery.degraded_serial", incidents=incidents)
        # Reclaim in-flight points for the serial path.
        for conn, task in list(running.items()):
            reap(conn, task)
            pending.append((task.index, task.attempt))
        running.clear()

    try:
        while pending or running:
            if degraded:
                for index, _attempt in sorted(pending):
                    result, records = _run(fn, items[index], capture, recorder)
                    finish(index, result, records)
                pending.clear()
                break
            while pending and len(running) < jobs:
                index, attempt = pending.popleft()
                spawn(index, attempt)

            timeout = None
            if any(task.deadline is not None for task in running.values()):
                now = time.monotonic()
                nearest = min(
                    task.deadline for task in running.values()
                    if task.deadline is not None
                )
                timeout = max(0.0, nearest - now)
            ready = _connection_wait(list(running), timeout=timeout)

            for conn in ready:
                task = running.pop(conn)
                try:
                    payload = conn.recv()
                except (EOFError, OSError):
                    payload = None  # died without reporting: a crash
                conn.close()
                task.proc.join()
                if payload is None:
                    requeue_or_fail(task, "crash")
                    continue
                status, value, records = payload
                if status == "ok":
                    finish(task.index, value, records)
                else:
                    kill_all()
                    raise value

            if policy.point_timeout is not None:
                now = time.monotonic()
                for conn, task in list(running.items()):
                    if task.deadline is not None and now >= task.deadline:
                        running.pop(conn)
                        reap(conn, task)
                        requeue_or_fail(task, "timeout")

            if incidents >= DEGRADE_AFTER and (pending or running):
                degrade()
    except BaseException:
        kill_all()
        raise

    return results  # type: ignore[return-value]
