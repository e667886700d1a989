"""Span shims for the traced run: time the calls into each layer.

Nothing inside ``repro`` knows about this file. In the traced child
only, :meth:`Tracer.install` replaces the public functions named in
:data:`TARGETS` with timing wrappers, at the places they are *used* (a
name bound by ``from x import y`` is patched in the importing module),
before any world is built. A target that no longer exists is reported
as missing, with a warning, and its metrics come out as ``null``; the
untraced run never imports this module.

Per span name the tracer keeps ``[calls, total_s, self_s]``, where self
time is the span's duration minus the part its child spans cover, found
through a stack of open spans. Event callbacks are timed by the engine
itself: the tracer is attached at the public ``Simulator.profiler``
hook, which reports ``(callback, seconds)`` after each event.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Raw spans kept for the trace file; counts and times keep accumulating.
RAW_SPAN_LIMIT = 100_000

#: The span the event loop runs in: record() turns callbacks into its
#: children.
LOOP_SPAN = "sim.loop"

#: While worlds are being built only these spans are recorded, so each
#: keeps as self time the sampling, claims and pushes done inside it,
#: and the fine-grained spans and counts describe the run phase alone.
SETUP_SPANS = frozenset({"workload.initial_fill", "hifi.trace.synthesize"})

#: Event callbacks by function name -> (events kind, span name).
CALLBACK_KINDS = {
    "release": ("task_end", "callback.task_end"),
    "_task_end": ("task_end", "callback.task_end"),
    "_arrive": ("arrive", "callback.arrive"),
    "_submit_trace_job": ("arrive", "callback.arrive"),
    "_think_complete": ("think_complete", "callback.think_complete"),
    "_offer_complete": ("think_complete", "callback.think_complete"),
    "_make_offer": ("other", "callback.mesos_offer"),
}
OTHER_CALLBACK = ("other", "callback.other")


def _count_placement(counts: dict, args: tuple, kwargs: dict, claims: list) -> None:
    # (free_cpu, free_mem, cpu, mem, num_tasks, rng[, index])
    counts["core.placement.tasks_requested"] += args[4]
    counts["core.placement.tasks_planned"] += sum(claim.count for claim in claims)


def _count_commit(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts["core.transaction.claims"] += len(args[1])
    counts["core.transaction.tasks_claimed"] += (
        result.accepted_tasks + result.rejected_tasks
    )
    counts["core.transaction.tasks_accepted"] += result.accepted_tasks
    counts["core.transaction.conflicted_calls"] += bool(result.conflicted)


_DISTRIBUTIONS = (
    "Constant",
    "Exponential",
    "LogNormal",
    "DiscretizedLogNormal",
    "Uniform",
    "WeightedChoice",
    "Mixture",
)
_RECORDERS = (
    "record_submission",
    "record_first_attempt",
    "record_busy",
    "record_commit",
    "record_scheduled",
    "record_abandoned",
)

#: (span name, module, dotted path[, counter]). A dict on the path is
#: indexed by the next part. Every target is public API of its module.
TARGETS: list[tuple] = [
    ("sim.push", "repro.sim.engine", "Simulator.at"),
    ("sim.push", "repro.sim.engine", "Simulator.after"),
    ("workload.make_job", "repro.workload.generator", "WorkloadGenerator.make_job"),
    *(
        ("workload.sample", "repro.workload.distributions", f"{cls}.sample")
        for cls in _DISTRIBUTIONS
    ),
    ("workload.initial_fill", "repro.workload.generator", "InitialFill.generate"),
    ("workload.initial_fill", "repro.experiments.common", "populate"),
    ("workload.initial_fill", "repro.hifi.replay", "populate"),
    ("schedulers.submit", "repro.schedulers.base", "QueueScheduler.submit"),
    ("schedulers.mesos.offer", "repro.schedulers.mesos.framework", "MesosFramework.receive_offer"),
    ("schedulers.mesos.offer", "repro.schedulers.mesos.allocator", "MesosAllocator.launch"),
    ("schedulers.mesos.offer", "repro.schedulers.mesos.allocator", "MesosAllocator.return_offer"),
    ("core.cellstate.sync", "repro.core.cellstate", "CellState.snapshot"),
    ("core.cellstate.sync", "repro.core.cellstate", "CellSnapshot.resync"),
    ("core.cellstate.claim", "repro.core.cellstate", "CellState.claim"),
    ("core.cellstate.claim", "repro.core.cellstate", "CellState.claim_batch"),
    ("core.cellstate.release", "repro.core.cellstate", "CellState.release"),
    *(
        ("core.placement.place", "repro.core.placement", f"PLACEMENT_STRATEGIES.{name}", _count_placement)
        for name in ("random-first-fit", "best-fit", "worst-fit")
    ),  # fmt: skip
    *(
        ("core.placement.place", module, "randomized_first_fit", _count_placement)
        for module in (
            "repro.core.scheduler",
            "repro.schedulers.monolithic",
            "repro.schedulers.mesos.framework",
        )
    ),
    ("core.transaction.commit", "repro.core.scheduler", "commit", _count_commit),
    ("hifi.placement.place", "repro.hifi.placement", "ScoringPlacer.place"),
    ("hifi.trace.synthesize", "repro.experiments.hifi_perf", "synthesize_trace"),
    ("federation.router.submit", "repro.federation.router", "FrontDoor.submit"),
    ("federation.cells.digest", "repro.federation.cells", "FederatedCell.publish_digest"),
    *(
        ("metrics.record", "repro.metrics.collector", f"MetricsCollector.{name}")
        for name in _RECORDERS
    ),
]


class Tracer:
    """Collects spans; doubles as a ``Simulator.profiler``."""

    def __init__(self) -> None:
        #: span name -> [calls, total_s, self_s]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        #: counts taken at the same boundaries as the spans
        self.counts: dict[str, int] = defaultdict(int)
        #: (name, start, end, span id, parent id, run id), first RAW_SPAN_LIMIT
        self.raw: list[tuple] = []
        #: span names with a target that could not be patched
        self.missing: list[str] = []
        #: Identifies the point being run; raw spans carry it.
        self.run_id = 0
        #: Set while worlds are built: record only SETUP_SPANS.
        self.in_setup = False
        self._ids = itertools.count()
        # Open spans, innermost last: [span id, child seconds, id that
        # children name as their parent, child seconds at the last
        # event callback]. The last two differ from the first two only
        # for a running event loop, see record().
        self._stack: list[list] = []
        self._kinds: dict[Any, tuple[str, str]] = {}

    # ------------------------------------------------------------------
    def _open(self) -> list:
        span_id = next(self._ids)
        frame = [span_id, 0.0, span_id, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        parent_id = -1
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent_id = parent[2]
        if len(self.raw) < RAW_SPAN_LIMIT:
            self.raw.append((name, start, end, frame[0], parent_id, self.run_id))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self._open()
        if name == LOOP_SPAN:
            frame[2] = next(self._ids)  # the first callback's id, see record()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, start, time.perf_counter())

    def wrap(
        self, fn: Callable, name: str, counter: Callable | None = None
    ) -> Callable:
        clock = time.perf_counter
        counts = self.counts
        fine = name not in SETUP_SPANS

        def traced(*args, **kwargs):
            if fine and self.in_setup:
                return fn(*args, **kwargs)
            frame = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, start, clock())
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    def record(self, fn: Callable, seconds: float) -> None:
        """``Simulator.profiler`` hook: one event callback has returned.

        The engine timed the callback; the spans that ran inside it have
        already closed under the open event-loop span. So the callback
        becomes a span after the fact: its children are whatever the
        loop collected since the previous callback, and they named as
        their parent the id reserved for it.
        """
        end = time.perf_counter()
        target = getattr(fn, "__func__", fn)
        kind = self._kinds.get(target)
        if kind is None:
            name = getattr(getattr(target, "__wrapped__", target), "__name__", "")
            kind = self._kinds[target] = CALLBACK_KINDS.get(name, OTHER_CALLBACK)
        events_kind, span_name = kind
        self.counts["sim.events." + events_kind] += 1
        loop = self._stack[-1]
        entry = self.stats[span_name]
        entry[0] += 1
        entry[1] += seconds
        entry[2] += seconds - (loop[1] - loop[3])
        loop[1] = loop[3] = loop[3] + seconds
        if len(self.raw) < RAW_SPAN_LIMIT:
            self.raw.append((span_name, end - seconds, end, loop[2], loop[0], self.run_id))
        loop[2] = next(self._ids)

    # ------------------------------------------------------------------
    def install(self, targets: list[tuple] = TARGETS) -> None:
        """Patch every target; warn about, and remember, the missing."""
        for name, module_name, path, *counter in targets:
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, last = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                if isinstance(owner, dict):
                    owner[last] = self.wrap(owner[last], name, *counter)
                else:
                    setattr(owner, last, self.wrap(getattr(owner, last), name, *counter))
            except (ImportError, AttributeError, KeyError):
                print(
                    f"bench: span target {module_name}.{path} not found; "
                    f"{name} is not measured",
                    file=sys.stderr,
                )
                if name not in self.missing:
                    self.missing.append(name)
