"""Checkpoint-aware sweep execution: the glue between drivers and the
supervisor.

The experiment driver (:func:`repro.experiments.registry.run`) calls
:func:`execute_map` with its ``--jobs`` value. Without a
:class:`RecoveryContext` this is a plain supervised map and behaves
exactly like the historical ``Pool.map`` fan-out: results in item
order, serial in this process when ``jobs <= 1`` or there is one item
(unless a point timeout needs workers).
Each point must already be self-seeded (every sweep point carries its
master seed), so serial and parallel runs produce identical tables.
When the CLI passes a
context (``--checkpoint DIR`` and friends), every completed sweep point
is durably appended to the context's
:class:`~repro.recovery.checkpoint.CheckpointStore` as it finishes, and
on ``--resume`` already-completed points are skipped — their stored
rows (and captured trace records) are used instead of re-running them.

The context is an argument, not process state: one driver sits between
the CLI and the points, so there is nothing to thread it through.

Determinism contract: a driver must materialize the same sweep, in the
same order, with the same per-point labels, on every run with the same
parameters — which they do, because sweep structure is a pure function
of the CLI arguments recorded in the run manifest. A command runs one
sweep: ``execute_map`` keys checkpoint records by the point's index,
and refuses to resume when a stored label no longer matches the
recomputed one.

Trace stitching: each point is called as ``fn(item, recorder)``. When
the caller's ``recorder`` is on and capture is needed (parallel
workers, or any checkpointed run), each point's records are captured in
a private recorder and replayed into the caller's in submission
order after the sweep — producing the same record sequence a serial
untraced-capture run would emit inline. Stored records from
skipped points are replayed the same way, so a resumed run's stitched
trace is identical to an uninterrupted run's apart from wall-clock
fields.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Sequence

from repro.obs.recorder import NULL_RECORDER
from repro.recovery.checkpoint import CheckpointStore, RecoveryError
from repro.recovery.supervisor import (
    DEFAULT_POLICY,
    SupervisorPolicy,
    supervised_map,
)

__all__ = ["RecoveryContext", "execute_map", "resolve_jobs"]


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: None/0 means one worker per CPU."""
    if jobs is None or jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


class RecoveryContext:
    """Execution-wide recovery state for one experiment command.

    ``store`` is the open checkpoint store, or ``None`` when the run is
    supervised (``--point-timeout`` etc.) but not checkpointed.
    ``resumed_points`` is the number of completed points recovered from
    the store before execution started. As a context manager it closes
    the store on exit.
    """

    def __init__(
        self,
        store: CheckpointStore | None = None,
        policy: SupervisorPolicy = DEFAULT_POLICY,
        resumed_points: int = 0,
    ) -> None:
        self.store = store
        self.policy = policy
        self.resumed_points = resumed_points
        #: Points executed (not skipped) under this context.
        self.points_completed = 0
        #: Points skipped because the checkpoint already held them.
        self.points_skipped = 0

    def close(self) -> None:
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "RecoveryContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


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


def execute_map(
    fn: Callable[[Any, Any], Any],
    items: Sequence[Any],
    jobs: int | None = 1,
    labels: Sequence[str] | None = None,
    policy: SupervisorPolicy | None = None,
    context: RecoveryContext | None = None,
    recorder=NULL_RECORDER,
) -> list[Any]:
    """Run one sweep under ``context`` (if any), tracing to ``recorder``.

    Results come back in item order; ``jobs`` goes through
    :func:`resolve_jobs`. Without a context this is supervised
    execution with default policy — behaviourally identical to the old
    ``Pool.map`` path for healthy runs.
    """
    jobs = resolve_jobs(jobs)
    store = context.store if context is not None else None
    if policy is None:
        policy = context.policy if context is not None else DEFAULT_POLICY
    items = list(items)
    n = len(items)
    if labels is None:
        labels = [str(index) for index in range(n)]
    elif len(labels) != n:
        raise ValueError(f"got {len(labels)} labels for {n} items")

    tracing = recorder.enabled
    # Private-recorder capture is needed whenever records cannot simply
    # be emitted inline: workers (parallel, or enforcing a timeout) have
    # no access to the parent recorder, and checkpointed points must
    # store their records so a resumed run can re-emit them.
    in_workers = (jobs > 1 and n > 1) or policy.point_timeout is not None
    capture = tracing and (in_workers or store is not None)

    if store is not None and store.completed:
        todo, done = _plan_resume(store, n, labels)
    else:
        todo, done = list(range(n)), {}

    if context is not None:
        context.points_skipped += len(done)

    results: list[Any] = [None] * n
    traces: list[list[dict[str, Any]] | None] = [None] * n
    for index, record in done.items():
        results[index] = record.get("row")
        traces[index] = record.get("trace")

    def on_result(position: int, result: Any, records: list[dict] | None) -> None:
        index = todo[position]
        if store is not None:
            store.append(
                {
                    "index": index,
                    "label": labels[index],
                    "row": result,
                    "trace": records,
                }
            )
        if context is not None:
            context.points_completed += 1

    if todo:
        executed = supervised_map(
            fn,
            [items[index] for index in todo],
            jobs=jobs,
            policy=policy,
            capture=capture,
            on_result=on_result,
            labels=[labels[index] for index in todo],
            recorder=recorder,
        )
        for position, (result, records) in enumerate(executed):
            index = todo[position]
            results[index] = result
            traces[index] = records

    if tracing and (capture or done):
        for index in range(n):
            records = traces[index]
            if records:
                recorder.replay(records)

    return results
