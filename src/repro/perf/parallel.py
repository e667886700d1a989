"""Order-preserving parallel execution of independent sweep points.

:func:`parallel_map` is the single entry point the experiment drivers
use: it maps a module-level function over picklable work items, fanning
out across supervised worker processes when ``jobs > 1`` and degrading
to a plain loop when ``jobs <= 1`` or there is only one item. Three
guarantees make it safe for the experiment drivers:

* **Determinism** — results come back in submission order, and each
  item's computation must already be self-seeded (every sweep point
  carries its master seed; see :func:`point_seed` for deriving distinct
  per-point seeds from one master seed). Serial and parallel runs
  therefore produce identical result tables.
* **Trace equivalence** — when the process-global trace recorder is
  enabled, workers cannot write to the parent's recorder. Instead each
  worker captures its records in a private in-memory recorder and the
  parent replays them, in submission order, through
  :meth:`repro.obs.TraceRecorder.replay` (which renumbers span ids).
  The stitched trace is byte-identical to a serial run's, apart from
  wall-clock fields.
* **Isolation** — workers always reset the global recorder first, so a
  forked copy of a file-backed parent recorder can never interleave
  writes into the parent's file descriptor.

Execution itself lives in :mod:`repro.recovery`: points run under a
supervisor (per-point timeouts, bounded retry on worker crashes,
degradation to serial when the pool is unhealthy) and, when the caller
passes a ``recovery`` context (``--checkpoint DIR``), completed points
are durably logged and skipped on ``--resume``. ``labels`` gives each
point a stable human-readable identity for checkpoint records and
failure messages; drivers pass the point's extra row fields.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Sequence

from repro.sim.random import derive_seed


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: None/0 means one worker per CPU."""
    if jobs is None or jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def point_seed(master_seed: int, label: str) -> int:
    """A stable per-point seed derived from a sweep's master seed.

    Thin wrapper over the golden-pinned :func:`~repro.sim.random.derive_seed`
    so sweep drivers that want *distinct* seeds per point (e.g. repeated
    trials of one configuration) get seeds that depend only on the
    point's label — never on execution order or worker assignment.
    """
    return derive_seed(master_seed, f"sweep-point:{label}")


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: int | None = 1,
    labels: Sequence[str] | None = None,
    recovery: Any = None,
) -> list[Any]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    ``fn`` must be a module-level (picklable-by-reference) function and
    each item must be picklable. Results are returned in item order
    regardless of completion order. ``jobs=None`` or ``0`` uses one
    worker per CPU; ``jobs<=1`` (or a single item) runs serially in
    this process, under the parent's trace recorder as usual.

    Execution is supervised and, under a ``recovery`` context
    (:class:`repro.recovery.RecoveryContext`), checkpointed — see
    :func:`repro.recovery.runner.execute_map` and docs/RECOVERY.md.
    """
    from repro.recovery.runner import execute_map

    return execute_map(
        fn, items, jobs=resolve_jobs(jobs), labels=labels, context=recovery
    )
